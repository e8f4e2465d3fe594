"""Monte Carlo estimation of order statistics, without building permutations.

The cycle type of a uniform random permutation of [n] has the same law as
the successive differences of the descending chain X_0 = n, X_{j+1}
uniform on {0, ..., X_j - 1}, run until it hits 0 (the Feller coupling).
Sampling the chain costs O(number of cycles) uniform draws, so statistics
of the order are cheap at n far beyond exhaustive enumeration.

Orders are compared as exact big integers (no truncation).  Each uniform
step on {0, ..., x - 1} draws x.bit_length() random bits with
`getrandbits` and redraws while the result is >= x: the rejection loop
that `random.randrange(x)` runs internally, so each step takes the draws
`randrange` would, without modulo bias.

Stream 2 (`STREAM_VERSION`): an estimator draws each trial only until its
outcome is decided.  `estimate_p` stops a trial at the first cycle length
that does not divide m (a miss: the order is then not m) or at the end of
the chain (a hit iff the running lcm equals m); all but about tau(m)/n of
trials miss on their first, largest cycle.  `estimate_collision` draws its
first chain in full, for its order A, and stops the second at the first
length that does not divide A.  Whether to stop depends only on the draws
made so far, so each trial still ends in a hit with probability exactly
p_n(m) (or the collision probability), independently of the trials
before it: the estimates stay unbiased, with the binomial variance.
Stream 1, which drew every chain to its end, gives the same law; only the
seeded hit counts differ, so records carry the stream that made them.

Parallel runs split trials into fixed-width chunks whose seeds derive from
the master seed by an avalanche mix, so pooled hit counts are identical for
every worker count, including one.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass

from .exactdist import brute_force_pmf

# The draw rule of the estimators (see the module docstring); seeded hit
# counts are reproducible only under the same version.
STREAM_VERSION = 2

_CHUNK = 10_000
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths of a permutation of [n], stored sorted."""

    n: int
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.lengths))
        if canon != self.lengths:
            object.__setattr__(self, "lengths", canon)
        if self.n < 1 or not self.lengths:
            raise ValueError(
                f"need n >= 1 and at least one cycle, got n={self.n}, "
                f"lengths={self.lengths}"
            )
        if self.lengths[0] < 1 or sum(self.lengths) != self.n:
            raise ValueError(f"lengths {self.lengths} do not partition {self.n}")


@dataclass(frozen=True)
class EstimateRecord:
    """One Monte Carlo estimate, with everything needed to replay it."""

    target: str
    n: int
    trials: int
    hits: int
    estimate: float
    std_err: float
    seed: int
    stream: int = STREAM_VERSION


@dataclass(frozen=True)
class ChiSquareResult:
    """Pearson goodness-of-fit of sampled orders against the exact pmf."""

    n: int
    trials: int
    statistic: float
    dof: int
    p_value: float
    passed: bool
    seed: int
    significance: float = 1e-3


def _sample_lengths(n: int, rng: random.Random) -> list[int]:
    # rng.randrange(x)'s own rejection loop, inlined: same draws, same stream.
    getrandbits = rng.getrandbits
    lengths = []
    x = n
    while x:
        k = x.bit_length()
        nxt = getrandbits(k)
        while nxt >= x:
            nxt = getrandbits(k)
        lengths.append(x - nxt)
        x = nxt
    return lengths


def sample_cycle_type(n: int, rng: random.Random) -> CycleType:
    """One draw of the cycle type of a uniform random permutation of [n]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return CycleType(n=n, lengths=tuple(_sample_lengths(n, rng)))


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed avalanche for substream seed derivation."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def _chunk_seed(seed: int, index: int) -> int:
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def _chunk_plan(trials: int, seed: int) -> list[tuple[int, int]]:
    """(chunk seed, chunk trials) pairs of fixed width.

    The plan depends only on (trials, seed), never on worker count, so
    pooled hit counts are reproducible under any parallelism.
    """
    plan = []
    index = 0
    remaining = trials
    while remaining > 0:
        count = min(_CHUNK, remaining)
        plan.append((_chunk_seed(seed, index), count))
        index += 1
        remaining -= count
    return plan


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled(fn, tasks, workers: int):
    """Yield fn(task) for each task, in task order, as each result is ready.

    With more than one worker and more than one task the calls run in a
    pool of min(workers, len(tasks), usable CPUs) processes: under fork a
    pool starts all of its workers at once, however few tasks there are,
    and workers beyond the CPUs only queue for them.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks), _usable_cpus())
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # deferred import: a run with one worker starts no pool, and the
    # process-pool machinery costs an import-time share of every CLI call
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


def _ends_at(m: int, x: int, cur: int, getrandbits) -> bool:
    """Draw the chain on from X = x, whose lengths so far have lcm cur.

    True iff the chain ends with order m; stops at the first length that
    does not divide m.
    """
    lcm = math.lcm
    while x:
        k = x.bit_length()
        nxt = getrandbits(k)
        while nxt >= x:
            nxt = getrandbits(k)
        j = x - nxt
        if m % j:
            return False
        cur = lcm(cur, j)
        x = nxt
    return cur == m


def _hits_order_eq(task: tuple[int, int, int, int]) -> int:
    # The first draw, from n, is inlined: most trials end there, and calling
    # _ends_at(m, n, 1, ...) for every trial measured 1.7x slower over
    # points-like (n, m) on a 2-vCPU x86 host.  Its bit length is fixed.
    n, m, cseed, count = task
    getrandbits = random.Random(cseed).getrandbits
    k0 = n.bit_length()
    hits = 0
    for _ in range(count):
        x = getrandbits(k0)
        while x >= n:
            x = getrandbits(k0)
        if not m % (n - x) and _ends_at(m, x, n - x, getrandbits):
            hits += 1
    return hits


def _hits_collision(task: tuple[int, int, int]) -> int:
    n, cseed, count = task
    rng = random.Random(cseed)
    getrandbits = rng.getrandbits
    hits = 0
    for _ in range(count):
        if _ends_at(math.lcm(*_sample_lengths(n, rng)), n, 1, getrandbits):
            hits += 1
    return hits


def _order_histogram(task: tuple[int, int, int]) -> dict[int, int]:
    n, cseed, count = task
    rng = random.Random(cseed)
    counts: dict[int, int] = {}
    for _ in range(count):
        order = math.lcm(*_sample_lengths(n, rng))
        counts[order] = counts.get(order, 0) + 1
    return counts


def _validate(n: int, trials: int, workers: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")


def _make_record(
    target: str, n: int, trials: int, hits: int, seed: int
) -> EstimateRecord:
    estimate = hits / trials
    std_err = math.sqrt(estimate * (1.0 - estimate) / trials)
    return EstimateRecord(
        target=target,
        n=n,
        trials=trials,
        hits=hits,
        estimate=estimate,
        std_err=std_err,
        seed=seed,
    )


def estimate_p(
    n: int, m: int, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Monte Carlo estimate of P(ord = m), deterministic given the seed."""
    _validate(n, trials, workers)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    tasks = [(n, m, s, c) for s, c in _chunk_plan(trials, seed)]
    hits = sum(_pooled(_hits_order_eq, tasks, workers))
    return _make_record(f"p(n={n}, m={m})", n, trials, hits, seed)


def estimate_collision(
    n: int, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Monte Carlo estimate of P(two independent permutations share an order).

    Each trial draws two independent cycle types; unbiased for the
    squared 2-norm of the order pmf.
    """
    _validate(n, trials, workers)
    tasks = [(n, s, c) for s, c in _chunk_plan(trials, seed)]
    hits = sum(_pooled(_hits_collision, tasks, workers))
    return _make_record(f"collision(n={n})", n, trials, hits, seed)


def _chi2_sf(statistic: float, dof: int) -> float:
    # deferred import: only the goodness-of-fit check needs scipy
    from scipy.stats import chi2

    return float(chi2.sf(statistic, dof))


def chi_square_vs_exact(
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
    significance: float = 1e-3,
) -> ChiSquareResult:
    """Pearson goodness-of-fit of sampled orders against the exact pmf.

    Limited to n <= 8, where the exact pmf comes from the independent
    brute-force enumeration.  Requires every expected bin count to be at
    least 5 (the rarest order is the identity's, with probability 1/n!),
    and tests at the given significance level.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"need 1 <= n <= 8, got {n}")
    _validate(n, trials, workers)
    exact = brute_force_pmf(n).entries
    fact = math.factorial(n)
    min_count = min(exact.values())
    if trials * min_count < 5 * fact:
        needed = -(-5 * fact // min_count)  # ceil
        raise ValueError(
            f"trials={trials} too small: the rarest order needs an expected "
            f"count >= 5, so trials must be >= {needed}"
        )

    tasks = [(n, s, c) for s, c in _chunk_plan(trials, seed)]
    observed: Counter[int] = Counter()
    for part in _pooled(_order_histogram, tasks, workers):
        observed.update(part)
    unexpected = set(observed) - set(exact)
    if unexpected:
        raise RuntimeError(
            f"sampled orders outside the exact support: {sorted(unexpected)[:5]}"
        )

    dof = len(exact) - 1
    if dof == 0:
        return ChiSquareResult(
            n=n,
            trials=trials,
            statistic=0.0,
            dof=0,
            p_value=1.0,
            passed=True,
            seed=seed,
            significance=significance,
        )
    statistic = 0.0
    for m_val, c in exact.items():
        expected = trials * c / fact
        diff = observed.get(m_val, 0) - expected
        statistic += diff * diff / expected
    p_value = _chi2_sf(statistic, dof)
    return ChiSquareResult(
        n=n,
        trials=trials,
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        passed=p_value >= significance,
        seed=seed,
        significance=significance,
    )
