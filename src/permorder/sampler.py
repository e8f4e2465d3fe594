"""Monte Carlo estimation of order statistics, without building permutations.

The cycle type of a uniform random permutation of [n] has the same law as
the successive differences of the descending chain X_0 = n, X_{j+1}
uniform on {0, ..., X_j - 1}, run until it hits 0.  Sampling the chain
costs O(number of cycles) uniform draws, so statistics of the order are
cheap at n far beyond exhaustive enumeration.

Orders are compared as exact big integers (no truncation), uniform steps
use rejection-free bounded draws (`random.randrange`, no modulo bias),
and parallel runs split trials into fixed-width chunks whose seeds derive
from the master seed by an avalanche mix — so pooled hit counts are
identical for every worker count, including one.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .exactdist import brute_force_pmf

_CHUNK = 10_000
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_PREDICATE_KINDS = ("restricted", "divides_order", "order_divides")


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


@dataclass(frozen=True)
class JointPredicate:
    """Event descriptor for `joint_frequency`.

    kind "restricted":    every cycle length lies in `allowed`;
    kind "divides_order": m divides the order;
    kind "order_divides": the order divides m.
    """

    kind: str
    allowed: frozenset[int] | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PREDICATE_KINDS:
            raise ValueError(
                f"unknown predicate kind {self.kind!r}; expected one of "
                f"{_PREDICATE_KINDS}"
            )
        if self.kind == "restricted":
            if not self.allowed:
                raise ValueError("restricted predicate needs a nonempty allowed set")
            object.__setattr__(self, "allowed", frozenset(self.allowed))
            if min(self.allowed) < 1:
                raise ValueError("allowed cycle lengths must be >= 1")
        elif self.m is None or self.m < 1:
            raise ValueError(f"{self.kind} predicate needs m >= 1")

    def holds(self, lengths: list[int], order: int) -> bool:
        if self.kind == "restricted":
            return all(j in self.allowed for j in lengths)
        if self.kind == "divides_order":
            return order % self.m == 0
        return self.m % order == 0


def _sample_lengths(n: int, rng: random.Random) -> list[int]:
    lengths = []
    x = n
    while x:
        nxt = rng.randrange(x)  # rejection sampling inside: no modulo bias
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


def _pooled(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _hits_order_eq(task: tuple[int, int, int, int]) -> int:
    n, m, cseed, count = task
    rng = random.Random(cseed)
    hits = 0
    for _ in range(count):
        if math.lcm(*_sample_lengths(n, rng)) == m:
            hits += 1
    return hits


def _hits_collision(task: tuple[int, int, int]) -> int:
    n, cseed, count = task
    rng = random.Random(cseed)
    hits = 0
    for _ in range(count):
        first = math.lcm(*_sample_lengths(n, rng))
        if math.lcm(*_sample_lengths(n, rng)) == first:
            hits += 1
    return hits


def _hits_joint(task: tuple[int, int, JointPredicate, int, int]) -> int:
    n, cycles, predicate, cseed, count = task
    rng = random.Random(cseed)
    hits = 0
    for _ in range(count):
        lengths = _sample_lengths(n, rng)
        if len(lengths) == cycles and predicate.holds(
            lengths, math.lcm(*lengths)
        ):
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


def joint_frequency(
    n: int,
    cycles: int,
    predicate: JointPredicate,
    trials: int,
    seed: int,
    workers: int = 1,
) -> EstimateRecord:
    """Empirical frequency of {exactly `cycles` cycles} and the predicate."""
    _validate(n, trials, workers)
    if cycles < 1:
        raise ValueError(f"need cycles >= 1, got {cycles}")
    tasks = [(n, cycles, predicate, s, c) for s, c in _chunk_plan(trials, seed)]
    hits = sum(_pooled(_hits_joint, tasks, workers))
    target = f"joint(n={n}, cycles={cycles}, {predicate.kind})"
    return _make_record(target, n, trials, hits, seed)


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
