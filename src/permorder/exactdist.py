"""Exact distribution of the order of a uniform random permutation of [n].

The order of a permutation is the lcm of its cycle lengths.  Everything
here is exact: counts are Python ints and probabilities are Fractions
with denominator n!; no approximate arithmetic appears anywhere in
this module.

Point counts come by two exact routes.  `order_counts_on_lattice` counts,
for every divisor d of m, the permutations whose cycle lengths all divide
d, by a scaled one-state recurrence (`_divide_counts`), and Moebius-inverts
those counts over the divisor lattice of m.  `count_order_exactly_mobius`
runs inclusion-exclusion over prime-exponent drops on the falling-factorial
recursion of `count_lengths_divide`.  The full pmf comes from a partition
scan over the long cycles merged with a table of the short ones
(`full_pmf`), and `mode` is read off that exact pmf.  The small-cycle table
and `count_restricted_cycles` share one scaled cycle-peeling loop, `_peel`.
The cross-checks that share nothing with these are the inclusion-exclusion
route, brute-force enumeration (`brute_force_pmf`) and the reference code
in tests/helpers.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .numtheory import DivisorLattice, FactoredInt, factorize, lcm_range, primes_up_to

DEFAULT_MAX_N = 100
DEFAULT_MAX_SUPPORT = 5_000_000
BRUTE_FORCE_LIMIT = 9


class BudgetExceededError(Exception):
    """A computation would exceed its configured size budget.

    Raised loudly instead of silently truncating, so the caller can
    decide whether to raise the budget or pick a cheaper route.
    """


@dataclass(frozen=True)
class OrderPmf:
    """Exact pmf of the order: ``entries[m]`` = #{pi in S_n : ord(pi) = m}."""

    n: int
    entries: dict[int, int]

    def prob(self, m: int) -> Fraction:
        return Fraction(self.entries.get(m, 0), math.factorial(self.n))


@dataclass(frozen=True)
class LatticeCountVector:
    """Permutation counts of [n] by exact order, for every order dividing m.

    ``counts`` is sparse: divisors of m realized by no permutation are
    simply absent.  ``count_for`` returns 0 for those.
    """

    n: int
    lattice: DivisorLattice
    counts: dict[int, int]

    def count_for(self, d: int) -> int:
        return self.counts.get(d, 0)


@dataclass(frozen=True)
class ModeResult:
    """The most likely order(s) of a uniform random permutation of [n].

    ``argmax`` lists every maximizer in increasing order; ties are real
    (n = 2 has two) and are never silently collapsed.
    """

    n: int
    argmax: tuple[int, ...]
    max_count: int
    max_prob: Fraction


def count_lengths_divide(n: int, f: FactoredInt) -> int:
    """Number of permutations of [n] whose cycle lengths all divide f.value.

    Classify by the cycle containing the largest remaining label: if that
    cycle has length j there are (nu-1)(nu-2)...(nu-j+1) ways to fill it,
    times the count for the nu-j leftover labels.  The falling factorial
    is extended incrementally as j walks up the divisor list.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    js = [d for d in DivisorLattice(f).divisors if d <= n]
    w = [1] + [0] * n
    for nu in range(1, n + 1):
        ff = 1
        built = 1
        acc = 0
        for j in js:
            if j > nu:
                break
            for i in range(built, j):
                ff *= nu - i
            built = j
            acc += ff * w[nu - j]
        w[nu] = acc
    return w[n]


def _peel(n: int, moves: list[tuple[int, Sequence[int]]], width: int):
    """Yield rows 0..n of the scaled cycle-peeling recurrence.

    Classify a permutation of [nu] by the cycle through its largest label:
    if it has length j, the other nu-j labels in state s give state
    comp_j[s].  ``moves`` lists the (j, comp_j) by ascending j, over states
    0..width-1, and w[nu][s] counts permutations of [nu] in state s (the
    empty one in state 0).  Instead of multiplying w[nu-j] by the falling
    factorial (nu-1)...(nu-j+1), rows are scaled to A[nu] = w[nu] * n!/nu!
    from A[0] = [n!, 0, ...], so that

        nu * A[nu][s'] = sum over j, and s with comp_j[s] = s', of A[nu-j][s]:

    one addition per cell and one division by nu per state, and A[n] = w[n].
    The division is exact because A[nu] is an integer for nu <= n; a
    remainder means a broken move table, and raises.
    """
    # Row r is dropped after its last read, at step r + max{j : r + j <= n}
    # (at once if no step reads it): every scaled row is about n! in size.
    drop_after: list[list[int]] = [[] for _ in range(n + 1)]
    for r in range(n):
        drop_after[r + max((j for j, _ in moves if r + j <= n), default=0)].append(r)
    rows: list[list[int] | None] = [None] * (n + 1)
    rows[0] = [math.factorial(n)] + [0] * (width - 1)
    yield rows[0]
    for nu in range(1, n + 1):
        row = [0] * width
        for j, comp in moves:
            if j > nu:
                break
            for di, b in enumerate(rows[nu - j]):
                if b:
                    row[comp[di]] += b
        for di, s in enumerate(row):
            if s:
                q, rem = divmod(s, nu)
                if rem:
                    raise RuntimeError(
                        f"internal inconsistency at n={n}: "
                        f"scaled row {nu} is not divisible by {nu}"
                    )
                row[di] = q
        rows[nu] = row
        for r in drop_after[nu]:
            rows[r] = None
        yield row


def _divide_counts(n: int, divisors: Sequence[int]) -> list[int]:
    """L(d) = #{pi in S_n : every cycle length divides d}, for each d listed.

    ``divisors`` must be all the divisors of some m, ascending.  For each d
    this is the cycle peeling of `count_lengths_divide` restricted to one
    state, with rows scaled to a[nu] = w[nu] * n!/nu! from a[0] = n! as in
    `_peel`, so that

        nu * a[nu] = sum over j | d, j <= nu, of a[nu-j]:

    one addition per cell and one division by nu per row, and a[n] = L(d).
    A remainder means a broken recurrence, and raises.
    """
    f_n = math.factorial(n)
    out = []
    for d in divisors:
        js = [j for j in divisors if j <= n and d % j == 0]
        a = [f_n] + [0] * n
        for nu in range(1, n + 1):
            s = 0
            for j in js:
                if j > nu:
                    break
                s += a[nu - j]
            q, rem = divmod(s, nu)
            if rem:
                raise RuntimeError(
                    f"internal inconsistency at n={n}: "
                    f"scaled row {nu} is not divisible by {nu}"
                )
            a[nu] = q
        out.append(a[n])
    return out


def order_counts_on_lattice(n: int, f: FactoredInt) -> LatticeCountVector:
    """Exact-order counts for all divisors of f.value at once.

    L(d), the number of permutations whose cycle lengths all divide d, is
    the sum of the exact-order counts E(d') over d' | d.  So `_divide_counts`
    gives L on the divisor lattice of m = f.value, and Moebius inversion
    one prime at a time recovers E: for each p | m, over the divisors in
    descending order, E(d) -= E(d/p) wherever p | d.  That costs
    sum over d | m of tau(d) additions per label, against tau(m) per cycle
    length for a DP that carries the running lcm.  A negative E(d) means
    an inconsistent L, and raises.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    lattice = DivisorLattice(f)
    divisors = lattice.divisors
    index_of = lattice.index_of
    counts = _divide_counts(n, divisors)
    for p, _ in f.factors:
        for i in range(len(divisors) - 1, -1, -1):
            d = divisors[i]
            if d % p == 0:
                counts[i] -= counts[index_of(d // p)]
    for d, c in zip(divisors, counts):
        if c < 0:
            raise RuntimeError(
                f"internal inconsistency at n={n}: negative count {c} for order {d}"
            )
    return LatticeCountVector(
        n=n, lattice=lattice, counts={d: c for d, c in zip(divisors, counts) if c}
    )


def count_order_exactly_mobius(n: int, f: FactoredInt) -> int:
    """#{pi in S_n : ord(pi) = f.value} by inclusion-exclusion.

    ord(pi) = m means every cycle length divides m and, for each prime
    p | m, some cycle length carries p's full power in m.  Replacing the
    exponent of p by one less captures the permutations that miss that
    full power, so alternating over subsets of the primes of m isolates
    the exact count.  Deliberately independent of the lattice DP route.
    """
    pf = f.factors
    total = 0
    for bits in range(1 << len(pf)):
        sign = 1
        value = 1
        lowered = []
        for i, (p, e) in enumerate(pf):
            if bits >> i & 1:
                sign = -sign
                e -= 1
            if e:
                lowered.append((p, e))
                value *= p**e
        total += sign * count_lengths_divide(n, FactoredInt(value, tuple(lowered)))
    return total


def p_exact(n: int, m: int) -> Fraction:
    """P(ord = m) for a uniform random permutation of [n], exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    # m is an achievable order iff its maximal prime powers fit into [n]
    # as disjoint cycles; everything else can be padded with fixed points.
    # So only primes <= n are divided out: whatever is left over has a
    # prime factor > n, and m is decided without factorizing it.
    factors = []
    rem = m
    for p in primes_up_to(n):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > n:
        return Fraction(0)
    if rem > 1:
        factors.append((rem, 1))  # a prime: no prime below sqrt(rem) divides it
    if sum(p**e for p, e in factors) > n:
        return Fraction(0)
    count = order_counts_on_lattice(n, FactoredInt(m, tuple(factors))).count_for(m)
    return Fraction(count, math.factorial(n))


# One entry holds up to max_support ints (18 663 at n = 100, about 0.7 MB),
# and callers reuse only the n they are working on.
@lru_cache(maxsize=4)
def _support_values(n: int, max_support: int) -> tuple[int, ...]:
    primes = primes_up_to(n)
    out: list[int] = []

    def walk(start: int, budget: int, value: int) -> None:
        if len(out) >= max_support:
            raise BudgetExceededError(
                f"support of n={n} exceeds max_support={max_support}"
            )
        out.append(value)
        for i in range(start, len(primes)):
            p = primes[i]
            if p > budget:
                break
            q = p
            while q <= budget:
                walk(i + 1, budget - q, value * q)
                q *= p

    walk(0, n, 1)
    out.sort()
    return tuple(out)


def support(n: int, max_support: int = DEFAULT_MAX_SUPPORT) -> list[int]:
    """All achievable orders of a permutation of [n], sorted ascending.

    These are exactly the m whose maximal prime-power parts sum to at
    most n; enumerated by a DFS that assigns each prime an exponent and
    charges p^e against the remaining budget.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(_support_values(n, max_support))


def _small_cycle_limit(n: int) -> int:
    # Timed over n = 2..100, the scan below runs fastest with t near n/6:
    # a larger t widens the table rows (lcm(1..t) gains divisors), a
    # smaller one leaves more partitions to walk.  Under n = 24 every t
    # takes well below a millisecond.
    return max(3, n // 6)


def _small_cycle_table(n: int, t: int) -> list[dict[int, int]]:
    """Row r maps l to #{pi in S_r : all cycles of pi are <= t, ord(pi) = l}.

    The cycle peeling of `_peel` over cycle lengths j <= t, with the lcm
    so far as a position among the divisors of lcm(1..t).  Its rows are
    scaled by n!/r!, and each is divided back once.
    """
    t = min(t, n)
    lattice = DivisorLattice(factorize(lcm_range(t)))
    divisors = lattice.divisors
    lcm = math.lcm
    moves = [
        (j, [lattice.index_of(lcm(d, j)) for d in divisors]) for j in range(1, t + 1)
    ]
    f_n = math.factorial(n)
    rows = []
    for r, row in enumerate(_peel(n, moves, len(divisors))):
        scale = f_n // math.factorial(r)
        rows.append({divisors[i]: c // scale for i, c in enumerate(row) if c})
    return rows


@lru_cache(maxsize=1)
def _full_counts(n: int, max_support: int) -> tuple[tuple[int, int], ...]:
    entries = dict.fromkeys(_support_values(n, max_support), 0)
    t = _small_cycle_limit(n)
    small = _small_cycle_table(n, t)
    f_n = math.factorial(n)
    lcm = math.lcm
    factorial = math.factorial

    # Meet in the middle.  Walk only the cycles longer than t, as partitions
    # by descending part size; `denom` carries prod(j^c * c!) over the
    # multiplicities chosen so far.  Then n!/(denom * rem!) counts the ways
    # to lay out those cycles and leave `rem` labels over, and the
    # small-cycle table row `rem` says how many permutations of the
    # leftover labels, all cycles <= t, have each lcm l.  Together they
    # make permutations of order lcm(value, l).
    def scan(rem: int, maxpart: int, denom: int, value: int) -> None:
        for j in range(min(maxpart, rem), t, -1):
            vj = lcm(value, j)
            weight = denom
            c = 0
            while j * (c + 1) <= rem:
                c += 1
                weight *= j * c
                scan(rem - j * c, j - 1, weight, vj)
        ways = f_n // (denom * factorial(rem))
        for ell, c in small[rem].items():
            entries[lcm(value, ell)] += ways * c

    scan(n, n, 1, 1)
    missing = [m for m, c in entries.items() if c == 0]
    if missing:
        raise RuntimeError(
            f"internal inconsistency at n={n}: no partition produced lcm "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    return tuple(sorted(entries.items()))


def full_pmf(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> OrderPmf:
    """The complete exact pmf of the order, as counts out of n!.

    Computed by one partition scan with a small-cycle table; the table runs
    on `_peel`.  The counts must sum to n! and the nonzero keys must equal
    support(n), which checks the whole result.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise BudgetExceededError(f"n={n} exceeds max_n={max_n}")
    return OrderPmf(n=n, entries=dict(_full_counts(n, max_support)))


def mode(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> ModeResult:
    """All most-likely orders: every argmax of the exact pmf, ties kept."""
    entries = full_pmf(n, max_n=max_n, max_support=max_support).entries
    best = max(entries.values())
    argmax = tuple(sorted(m for m, c in entries.items() if c == best))
    return ModeResult(
        n=n, argmax=argmax, max_count=best, max_prob=Fraction(best, math.factorial(n))
    )


def collision_norm(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> Fraction:
    """P(two independent uniform permutations of [n] have the same order)."""
    pmf = full_pmf(n, max_n=max_n, max_support=max_support)
    fact_sq = math.factorial(n) ** 2
    return Fraction(sum(c * c for c in pmf.entries.values()), fact_sq)


def tail_max(
    n: int,
    eps: Fraction | int | str,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> tuple[int, Fraction] | None:
    """Most likely order among those >= n^(1+eps); None if that tail is empty.

    eps must be a positive rational p/q; the cutoff m >= n^(1+p/q) is
    evaluated exactly as m**q >= n**(p+q).  On tied counts the smallest
    qualifying m is returned.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    p, q = eps.numerator, eps.denominator
    pmf = full_pmf(n, max_n=max_n, max_support=max_support)
    cutoff = n ** (p + q)
    best: tuple[int, int] | None = None  # (count, m)
    for m in sorted(pmf.entries):
        if m**q >= cutoff:
            c = pmf.entries[m]
            if best is None or c > best[0]:
                best = (c, m)
    if best is None:
        return None
    return best[1], Fraction(best[0], math.factorial(n))


def count_restricted_cycles(n: int, cycles: int, allowed: Iterable[int]) -> int:
    """Permutations of [n] with exactly `cycles` cycles, all lengths in `allowed`.

    The cycle peeling of `_peel` with the number of cycles as the state;
    the last state absorbs every permutation with more than `cycles`.
    """
    js = sorted(set(allowed))
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"cycle lengths must lie in 1..{n}, got {j}")
    if n < 0 or cycles < 0:
        raise ValueError(f"need n >= 0 and cycles >= 0, got n={n}, cycles={cycles}")
    add_one = [*range(1, cycles + 2), cycles + 1]
    for row in _peel(n, [(j, add_one) for j in js], cycles + 2):
        pass
    return row[cycles]


@lru_cache(maxsize=None)
def _brute_tables(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], int], ...]]:
    pmf: dict[int, int] = {}
    joint: dict[tuple[int, int], int] = {}
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            lengths.append(length)
        order = math.lcm(*lengths) if lengths else 1
        pmf[order] = pmf.get(order, 0) + 1
        key = (len(lengths), order)
        joint[key] = joint.get(key, 0) + 1
    return tuple(sorted(pmf.items())), tuple(sorted(joint.items()))


def brute_force_pmf(n: int) -> OrderPmf:
    """Order pmf by direct enumeration of all n! permutations (n <= 9)."""
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force needs 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    return OrderPmf(n=n, entries=dict(_brute_tables(n)[0]))


def brute_force_joint(n: int) -> dict[tuple[int, int], int]:
    """(number of cycles, order) -> count, by direct enumeration (n <= 9)."""
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force needs 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    return dict(_brute_tables(n)[1])
