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

Block reader.  For k <= 32, `getrandbits(k)` is the top k bits of the
generator's next 32-bit output, and `getrandbits(32 * B)` holds the next B
outputs in order, the first in the lowest bits.  So `estimate_p` may read
each chunk's generator in blocks: `getrandbits(32 * B).to_bytes(4 * B,
"little")` is B words of four bytes, decoded as little-endian whatever the
host's byte order, and word i >> (32 - k) is exactly the draw
`getrandbits(k)` would make in its place.  A first draw from n is the top
k0 = n.bit_length() bits of a word, so the word's top byte often decides
it.  A 256-byte class table, built once per estimate from the cycle
lengths j <= n that divide m, marks each top byte as a reject (every x it
can give is >= n, so the draw is redone), a miss (every x it can give is
< n and has n - x not dividing m, so the trial ends) or open.
`bytes.translate` classes a whole block's top bytes at once, and `find`
and `count` step over each run of rejects and misses in C, counting the
misses as ended trials.  Only open words, and the chains they start, are
read in Python: the chains by `_ends_at`, drawing words from the same
block.  Every word is consumed in the order, and with the meaning, that the
per-draw loop gives it, so every stream-2 hit count is unchanged bit for
bit.  A block holds at most 4096 words and no more words than trials
left, so a short chunk reads about the words it needs; words read past
the chunk's last trial come from the chunk's own generator, which is then
discarded.

The per-draw loop still runs where the block reader cannot serve or gives
no gain.  It cannot serve first draws wider than 32 bits (n >= 2**32), nor
an m whose lengths j <= n `numtheory`'s trial division, run over the
primes up to sqrt(n), cannot settle.  It gives no gain where more than
1/32 of first draws continue (chains then dominate), where the table has
more than 32 open bytes, or where the set-up (trial division and the
table) would cost more than a small share of the trials.  CPU time over
10 chunks of 10 000 trials, median of 3, on a shared 2-vCPU x86 host,
Python 3.11, in M trials/s per draw against blocks:

  =====================  ========  =====  ======  =====
  n, m                   continue  open   draw    block
  =====================  ========  =====  ======  =====
  10, 10                 40%       64     2.5     0.9
  100, 100               9.0%      18     5.8     4.1
  200, 200               6.0%      12     6.0     5.7
  256, 240               7.8%      16     4.0     3.4
  600, 720               4.8%      19     4.2     3.6
  500, 500               2.4%      11     6.1     9.6
  1000, 1000             1.6%      13     5.5     9.5
  100 000, 100 000       0.04%     16     5.3     6.8
  2**20, 720720          0.02%     18     4.3     4.6
  2**20, 2**10 ... 13    0.2%      128    3.8     0.8
  =====================  ========  =====  ======  =====

The last row's m is 2**10 3**5 5**3 7**2 11 13.  The choice depends only
on (n, m, trials), and no option selects a path.

Parallel runs split trials into fixed-width chunks whose seeds derive from
the master seed by an avalanche mix, so pooled hit counts are identical for
every worker count, including one.
"""

from __future__ import annotations

import math
import os
import random
import struct
from collections import Counter
from dataclasses import dataclass

from .exactdist import brute_force_pmf
from .numtheory import _trial_factors

# The draw rule of the estimators (see the module docstring); seeded hit
# counts are reproducible only under the same version.
STREAM_VERSION = 2

# `chi_square_vs_exact` passes when its p-value is at least this level.
CHI_SQUARE_SIGNIFICANCE = 1e-3

_CHUNK = 10_000
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# The block reader's limits and first-draw classes (see the module docstring).
_BLOCK = 4096
_CONTINUE_SHARE = 32
_MAX_OPEN = 32
_REJECT, _MISS, _OPEN = b"r", b"m", b"o"
_WORD = struct.Struct("<I").unpack_from


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
    significance: float


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
    does not divide m.  `getrandbits` is a generator's, or the block
    reader's `draw` (x < 2**32 there).
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


def _lengths_dividing(m: int, n: int, top: int, most: int) -> list[int] | None:
    """The cycle lengths j <= n that divide m, unsorted, or None.

    Trial division runs up to `top`.  A cofactor it leaves unsettled has
    only prime factors above `top`, and may hide a length: then None is
    returned, as it is when there are more than `most` lengths.
    """
    factors, rem = _trial_factors(m, top)
    if rem > 1:
        return None
    lengths = [1]
    for p, e in factors:
        step = lengths
        for _ in range(e):
            step = [d * p for d in step if d * p <= n]
            lengths += step
        if len(lengths) > most:
            break
    return lengths if len(lengths) <= most else None


def _first_draw_classes(n: int, m: int, trials: int) -> bytes | None:
    """The class table of the block reader, or None for the per-draw loop.

    Byte b of the table classes the words whose top byte is b as first
    draws x = word >> (32 - n.bit_length()): `_REJECT` if every such x is
    >= n, `_MISS` if every such x is < n and no n - x divides m, else
    `_OPEN`.  None where first draws are wider than 32 bits, where more
    than n / 32 lengths j <= n divide m, where the table has more than
    `_MAX_OPEN` open bytes, or where the set-up would pass its budget:
    trial division up to min(sqrt(n), trials / 16), and trials / 64
    lengths.
    """
    k0 = n.bit_length()
    if k0 > 32:
        return None
    lengths = _lengths_dividing(
        m, n, min(math.isqrt(n), trials // 16),
        min(n // _CONTINUE_SHARE, trials // 64),
    )
    if lengths is None:
        return None
    shift = 32 - k0
    # x comes from the top bytes floor(x << shift >> 24) up to, not
    # including, the ceiling; from n's ceiling up every x is >= n, and a
    # byte that n does not start also gives some x < n
    reject = -(-(n << shift) >> 24)
    table = bytearray(_MISS * reject + _REJECT * (256 - reject))
    if (n << shift) & 0xFFFFFF:
        table[reject - 1] = _OPEN[0]
    for j in lengths:
        x = n - j
        lo, hi = (x << shift) >> 24, -(-((x + 1) << shift) >> 24)
        table[lo:hi] = _OPEN * (hi - lo)
    if table.count(_OPEN) > _MAX_OPEN:
        return None
    return bytes(table)


def _read_block(getrandbits, words: int, table: bytes) -> tuple[bytes, bytes]:
    """The next `words` 32-bit draws as little-endian bytes, and their classes."""
    buf = getrandbits(32 * words).to_bytes(4 * words, "little")
    return buf, buf[3::4].translate(table)


def _hits_by_blocks(task: tuple[int, int, int, int, bytes]) -> int:
    # _hits_order_eq's trials, read from blocks of the chunk's generator
    # (see the module docstring): runs of decided first draws are counted
    # in C, each open word is read in place, and its chain is drawn with
    # `draw`.  Reading every open word with `draw` too measured about 7%
    # slower over the `points` (n, m).
    n, m, cseed, count, table = task
    getrandbits = random.Random(cseed).getrandbits
    shift = 32 - n.bit_length()
    left = count
    buf, cls = _read_block(getrandbits, min(_BLOCK, left), table)
    pos = 0

    def draw(k: int) -> int:
        # getrandbits(k), 1 <= k <= 32, from the block
        nonlocal buf, cls, pos
        if pos == len(cls):
            buf, cls = _read_block(getrandbits, min(_BLOCK, left), table)
            pos = 0
        pos += 1
        return _WORD(buf, 4 * pos - 4)[0] >> (32 - k)

    hits = 0
    while True:
        nxt = cls.find(_OPEN, pos)
        end = len(cls) if nxt < 0 else nxt
        left -= cls.count(_MISS, pos, end)
        if left <= 0:
            return hits
        if nxt < 0:
            buf, cls = _read_block(getrandbits, min(_BLOCK, left), table)
            pos = 0
            continue
        x = _WORD(buf, 4 * nxt)[0] >> shift
        pos = nxt + 1
        if x >= n:
            continue
        if not m % (n - x) and _ends_at(m, x, n - x, draw):
            hits += 1
        left -= 1
        if not left:
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


def _validate(n: int, trials: int, seed: int, workers: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    # Chunk seeds are taken mod 2**64, so a seed outside the range would
    # alias the stream of one inside it.
    if not 0 <= seed <= _MASK:
        raise ValueError(f"need 0 <= seed < 2**64, got {seed}")
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
    _validate(n, trials, seed, workers)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    table = _first_draw_classes(n, m, trials)
    if table is None:
        tasks = [(n, m, s, c) for s, c in _chunk_plan(trials, seed)]
        hits = sum(_pooled(_hits_order_eq, tasks, workers))
    else:
        tasks = [(n, m, s, c, table) for s, c in _chunk_plan(trials, seed)]
        hits = sum(_pooled(_hits_by_blocks, tasks, workers))
    return _make_record(f"p(n={n}, m={m})", n, trials, hits, seed)


def estimate_collision(
    n: int, trials: int, seed: int, workers: int = 1
) -> EstimateRecord:
    """Monte Carlo estimate of P(two independent permutations share an order).

    Each trial draws two independent cycle types; unbiased for the
    squared 2-norm of the order pmf.
    """
    _validate(n, trials, seed, workers)
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
) -> ChiSquareResult:
    """Pearson goodness-of-fit of sampled orders against the exact pmf.

    Limited to n <= 8, where the exact pmf comes from the independent
    brute-force enumeration.  Requires every expected bin count to be at
    least 5 (the rarest order is the identity's, with probability 1/n!),
    and tests at level CHI_SQUARE_SIGNIFICANCE.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"need 1 <= n <= 8, got {n}")
    _validate(n, trials, seed, workers)
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
    statistic = 0.0
    for m_val, c in exact.items():
        expected = trials * c / fact
        diff = observed.get(m_val, 0) - expected
        statistic += diff * diff / expected
    # n = 1 has one bin, which every trial fills: nothing to test.
    p_value = _chi2_sf(statistic, dof) if dof else 1.0
    return ChiSquareResult(
        n=n,
        trials=trials,
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        passed=p_value >= CHI_SQUARE_SIGNIFICANCE,
        seed=seed,
        significance=CHI_SQUARE_SIGNIFICANCE,
    )
