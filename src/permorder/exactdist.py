"""Exact distribution of the order of a uniform random permutation of [n].

The order of a permutation is the lcm of its cycle lengths.  Everything
here is exact: counts are Python ints and probabilities are Fractions
with denominator n!; no approximate arithmetic appears anywhere in
this module.

Exact-order counts rest on divide-counts: L(d), the permutations whose
cycle lengths all divide d, from a scaled one-state recurrence
(`_divide_columns`), with Moebius inversion over divisors turning them
into counts of order exactly d.  `p_exact` counts order m alone: it sums
mu(s) L(m/s) over squarefree s | m.  Cycles up to t =
`_small_cycle_limit(n)` are read from one column per term, for e =
gcd(m/s, lcm(1..t)); for e = 1 the column is n!/r!, built by one
descending chain of `math.perm` over the rows the walk reads
(`_falling_products`).  The rest are walked.  m's prime powers above t,
and those `_plan_split` adds by a work estimate, are cancelled in the
walk: their primes take no Moebius term, and a walk node counts only if
its cycles carry every one of them.
The full pmf splits the cycle lengths by whether they divide
L = lcm(1..t).  `_small_cycle_table` runs the recurrence over every
divisor of L, with the divisors of L as cycle lengths, for every label
count up to n, and inverts whole columns (`DivisorLattice.mobius_steps`).  `_long_cycle_table` walks the
partitions into the other lengths once and sums, for each label count
s, the permutations of [s] by (g, h) with g = gcd(order, L) and
h = order // g.  The full pmf (`full_pmf`) merges the two: every order
l in the small table divides L, so lcm(g * h, l) = h * lcm(g, l), and
for each s small-table row n - s is collapsed once per g and spread
over the h's, weighted by C(n, s).  The rows of both tables do not
depend on n, so the last pair built is kept in a one-entry slot and
serves every n with the same t that it has rows for.  `mode` is read off
that exact pmf.  `order_counts_on_lattice` gives the counts of every
divisor of m at once; no code in this package calls it, and it stays as
a reference for the tests.
`count_order_exactly_mobius` runs inclusion-exclusion over prime-exponent
drops on the falling-factorial recursion of `count_lengths_divide`, and
`count_restricted_cycles` runs that recursion with a cycle-count index.
The cross-checks that share nothing with these are the inclusion-exclusion
route, brute-force enumeration (`brute_force_pmf`) and the reference code
in tests/helpers.py.

Every size limit is a module constant, read when the call is made:
DEFAULT_MAX_N and DEFAULT_MAX_SUPPORT for the full pmf and everything
read off it, P_EXACT_MAX_N for point queries and TAIL_MAX_BITS for the
cutoff of `tail_max`.  The support budget is checked as the support is
enumerated, the others before any work.  Raising a budget means
assigning the constant, e.g. ``exactdist.DEFAULT_MAX_N = 120``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .numtheory import (
    BudgetExceededError,
    DivisorLattice,
    FactoredInt,
    _trial_factors,
    factorize,
    lcm_range,
    primes_up_to,
)

DEFAULT_MAX_N = 100
# p_exact(n, n) took 5.6 s of CPU at n = 5040 and 30 s at n = 10 080, with
# peak RSS 51 MB and 170 MB, on a 2-vCPU host.  One scaled column holds n + 1
# ints of about log2(n!) bits, so its memory grows like n^2 log n; at
# n = 100 000 it would need about 19 GB.
P_EXACT_MAX_N = 10_000
DEFAULT_MAX_SUPPORT = 5_000_000
# tail_max(100, 1/107 141), a cutoff of 749 994 bits, took 0.88 s with
# full_pmf(100) already cached, on a 2-vCPU host; its 15 powers m**q cost
# about q^1.6 (0.27 s at q = 5 * 10^4, 0.78 s at 10^5).
TAIL_MAX_BITS = 750_000
BRUTE_FORCE_LIMIT = 9


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


def _divide_columns(
    n: int, lengths: Sequence[int], columns: Iterable[int], last: int
) -> Iterator[list[int]]:
    """Yield, for each c in ``columns``, the scaled column a[0..last] for c.

    w[nu] counts the permutations of [nu] whose cycle lengths all lie in
    ``lengths`` (ascending) and divide c.  This is the cycle peeling of
    `count_lengths_divide` with w[nu] scaled to a[nu] = w[nu] * n!/nu!
    from a[0] = n!, so that

        nu * a[nu] = sum over allowed j <= nu of a[nu-j]:

    one addition per cell and one division by nu per row, and a[n] = w[n].
    Rows past ``last`` <= n are not built.  The division is exact because
    a[nu] is an integer for nu <= n; a remainder means a broken
    recurrence, and raises.  A caller that holds no column while asking
    for the next keeps one column alive at a time.
    """
    f_n = math.factorial(n)
    for c in columns:
        js = [j for j in lengths if c % j == 0]
        a = [f_n] + [0] * last
        for nu in range(1, last + 1):
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
        yield a


def _divide_counts(n: int, divisors: Sequence[int]) -> list[int]:
    """L(d) = #{pi in S_n : every cycle length divides d}, for each d listed.

    ``divisors`` must be all the divisors of some m, ascending; L(d) is
    the last entry of d's column in `_divide_columns`.
    """
    lengths = [j for j in divisors if j <= n]
    # map lets go of each column before the next is built; the loop variable
    # of a comprehension would keep a second column of about n! sized ints.
    return list(map(operator.itemgetter(n), _divide_columns(n, lengths, divisors, n)))


def order_counts_on_lattice(n: int, f: FactoredInt) -> LatticeCountVector:
    """Exact-order counts for all divisors of f.value at once.

    L(d), the number of permutations whose cycle lengths all divide d, is
    the sum of the exact-order counts E(d') over d' | d.  So `_divide_counts`
    gives L on the divisor lattice of m = f.value, and Moebius inversion
    (`DivisorLattice.mobius_steps`) recovers E.  That costs sum over d | m
    of tau(d) additions per label, against tau(m) per cycle length for a
    DP that carries the running lcm.  A negative E(d) means an
    inconsistent L, and raises.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    lattice = DivisorLattice(f)
    divisors = lattice.divisors
    counts = _divide_counts(n, divisors)
    for i, k in lattice.mobius_steps():
        counts[i] -= counts[k]
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
    the exact count.  Deliberately independent of the walk-plus-column
    route of `p_exact`.
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


# The work estimate that picks `_count_order`'s split, in units of one bit of
# a bigint addition; b = log2(n!) bits is the size of a scaled row.  A column
# row costs |J_e| additions and a divmod by nu, plus interpreter steps.  A
# walk node is walked twice and divides a scaled row by its weight of w
# bits.  A key takes one addition per Moebius term.  Least squares on
# relative error, over the `points` orders (n = 201..800, 560 columns and
# 386 walks), gave 0.056 ns per unit, a row 3 b + 3600 units and a node
# 5 b + b w / 18 + 47 000, on a 2-vCPU host.
_ROW_DIVISION_WEIGHT = 3
_ROW_STEP = 3600
_NODE_WEIGHT = 5
_NODE_WEIGHT_BITS = 18
_NODE_STEP = 47_000
_PLAN_MARGIN = 4


class _Split:
    """How `_count_order` divides order m's prime powers between columns and walk.

    Each prime power q = p^a of m is small, with Moebius terms of its own
    and short cycles read from columns, or big, cancelled in the walk.
    Every q above the short-cycle limit t is big.  Bit b of a mask stands
    for ``small[b]`` and bit len(small) + b for ``big[b]``, each a pair
    (p, q).  ``terms`` are `_moebius_terms`.  ``parts`` are the walk's
    cycle lengths, ascending: the divisors of m up to n that are longer
    than t or divisible by a big q; ``carries[k]`` has the bits of the q
    dividing ``parts[k]``.  ``need[k][M]`` is the fewest labels that
    distinct parts from ``parts[k:]`` take to carry every big q in M (big
    bits shifted down), or n + 1 if they cannot.
    """

    # A plain class: a dataclass here added milliseconds to every import.
    __slots__ = ("t", "small", "big", "terms", "parts", "carries", "need")

    def __init__(
        self,
        n: int,
        divisors: Sequence[int],
        t: int,
        small: tuple[tuple[int, int], ...],
        big: tuple[tuple[int, int], ...],
        terms: tuple[tuple[int, int, int], ...],
    ) -> None:
        qs = [q for _, q in small + big]
        parts = tuple(
            j for j in divisors if j <= n and (j > t or any(j % q == 0 for _, q in big))
        )
        carries = tuple(sum(1 << b for b, q in enumerate(qs) if j % q == 0) for j in parts)
        big_sets = range(1 << len(big))
        row = tuple(0 if miss == 0 else n + 1 for miss in big_sets)
        need = [row]
        for j, carry in zip(reversed(parts), reversed(carries)):
            left = ~(carry >> len(small))
            if left != -1:
                with_j = [j + row[miss & left] for miss in big_sets]
                row = tuple(a if a <= b else b for a, b in zip(row, with_j))
            need.append(row)
        need.reverse()
        self.t, self.small, self.big, self.terms = t, small, big, terms
        self.parts, self.carries, self.need = parts, carries, tuple(need)

    def nodes(self, n: int) -> Iterator[tuple[int, int]]:
        """Yield (key, weight) for each node of the walk that counts.

        The walk runs over the multisets of ``parts`` that fit in n labels.
        A node leaves r labels over, has weight prod(j^c * c!) over its
        multiplicities c, and carries the q dividing one of its parts.  It
        counts when it carries every big q; its key is r << len(small) |
        the small q it carries.  A node is pushed only if later parts can
        still carry the big q it misses.
        """
        parts, carries, need = self.parts, self.carries, self.need
        n_small = len(self.small)
        small_bits = (1 << n_small) - 1
        big_bits = len(need[0]) - 1
        # (index of the next part to try, labels left, weight, bits carried).
        stack = [(0, n, 1, 0)]
        while stack:
            i, rem, weight, mask = stack.pop()
            missing = big_bits & ~(mask >> n_small)
            if not missing:
                yield rem << n_small | mask & small_bits, weight
            for k in range(i, len(parts)):
                j = parts[k]
                if j > rem or need[k][missing] > rem:
                    break
                mask_j = mask | carries[k]
                room = rem - need[k + 1][big_bits & ~(mask_j >> n_small)]
                w = weight
                c = 0
                while j * (c + 1) <= room:
                    c += 1
                    w *= j * c
                    stack.append((k + 1, rem - j * c, w, mask_j))


def _moebius_terms(
    m: int, t: int, small: Sequence[tuple[int, int]], big: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int, int], ...]:
    """(s bits, mu(s), e) for each squarefree s over the primes of ``small``.

    Bit b of s stands for the prime of small[b].  The column of term s
    counts the short cycles that divide m/s and carry no big q, that is
    the lengths <= t dividing e = gcd(d, lcm(1..t)) with d = m / (s * the
    primes of ``big``).  e = 1, if it occurs, is the last term's.
    """
    big_l = lcm_range(t)
    base = m // math.prod(p for p, _ in big)
    out = []
    for bits in range(1 << len(small)):
        sign = 1
        d = base
        for b, (p, _) in enumerate(small):
            if bits >> b & 1:
                sign = -sign
                d //= p
        out.append((bits, sign, math.gcd(d, big_l)))
    return tuple(out)


def _least_walk_cost(
    n: int, divisors: Sequence[int], big: Sequence[tuple[int, int]], bits: int
) -> int:
    """A lower bound on the estimated work of a walk with these big q.

    Take a nonempty multiset of m's divisors divisible by the smallest big
    q, 1 + c cycles of the next smallest and one of each other big q: if
    it fits in n labels it carries every big q, so it is a node that
    counts.  The multisets of q's multiples are counted by sum / q with
    coin-change counting, up to a sum of 128 q.  Among them, c cycles of
    q alone have a weight q^c * c! of at least sum over i <= c of
    floor(log2(q * i)) bits.
    """
    node_cost = _NODE_WEIGHT * bits + _NODE_STEP
    if not big:
        return node_cost
    qs = sorted(q for _, q in big)
    q = qs[0]
    step = qs[1] if len(qs) > 1 else n + 1
    spare = n - sum(qs)
    room = min(spare // q + 1, 128)
    ways = [1] + [0] * room
    for j in divisors:
        if j % q == 0 and j // q <= room:
            for s in range(j // q, room + 1):
                ways[s] += ways[s - j // q]
    fits = list(itertools.accumulate(ways))
    nodes = sum(
        fits[min((spare - c * step) // q + 1, room)] - 1 for c in range(spare // step + 1)
    )
    weight_bits = chain_bits = 0
    for c in range(1, room + 1):
        weight_bits += (q * c).bit_length() - 1
        chain_bits += weight_bits
    return nodes * node_cost + bits * chain_bits // _NODE_WEIGHT_BITS


def _plan_split(
    n: int, f: FactoredInt, divisors: Sequence[int], bits: int
) -> tuple[_Split, set[int]]:
    """Pick the split for counting order m = f.value on [n], and its walk's keys.

    t = `_small_cycle_limit(n)` clipped to n.  The candidates keep every
    prime power <= t small, then move them into the walk one at a time,
    largest first: each halves the columns and grows the walk.  The work
    estimate, in integers only, charges each column n rows of |J_e|
    additions and a division of ``bits`` = log2(n!) bits, with J_e the
    lengths <= t dividing e, and each node and key of the walk a weight.
    The walk is counted, without its divisions, only while the candidate
    can still win.  The search stops at the first candidate whose estimate
    does not fall.
    """
    m = f.value
    t = min(_small_cycle_limit(n), n)
    short = [j for j in divisors if j <= t]
    pqs = sorted(((p, p**a) for p, a in f.factors), key=operator.itemgetter(1))
    node_cost = _NODE_WEIGHT * bits + _NODE_STEP
    best = best_cost = best_keys = None
    for n_small in range(sum(q <= t for _, q in pqs), -1, -1):
        small, big = tuple(pqs[:n_small]), tuple(pqs[n_small:])
        terms = _moebius_terms(m, t, small, big)
        cost = sum(
            n * ((sum(e % j == 0 for j in short) + _ROW_DIVISION_WEIGHT) * bits + _ROW_STEP)
            for _, _, e in terms
            if e != 1
        )
        # Walking a candidate to count its nodes takes time of its own, so
        # it is walked only if its least walk leaves a quarter to save.
        if best is not None and cost + _least_walk_cost(
            n, divisors, big, bits
        ) >= best_cost - best_cost // _PLAN_MARGIN:
            break
        split = _Split(n, divisors, t, small, big, terms)
        keys = set()
        for key, weight in split.nodes(n):
            cost += node_cost + bits * weight.bit_length() // _NODE_WEIGHT_BITS
            if key not in keys:
                keys.add(key)
                cost += len(terms) * bits
            if best is not None and cost >= best_cost:
                break
        else:
            best, best_cost, best_keys = split, cost, keys
            continue
        break
    return best, best_keys


def _falling_products(n: int, rows: Iterable[int]) -> dict[int, int]:
    """n!/r! for each r in ``rows`` (0 <= r <= n), as one descending chain.

    Each row multiplies the one above it by math.perm(prev, prev - r) =
    prev!/r!, so the chain makes one small product per label in all and
    holds only the rows asked for.
    """
    out = {}
    f = 1
    prev = n
    for r in sorted(rows, reverse=True):
        f *= math.perm(prev, prev - r)
        out[r] = f
        prev = r
    return out


def _count_order(n: int, f: FactoredInt, f_n: int) -> int:
    """#{pi in S_n : ord(pi) = f.value}, counting order m = f.value alone.

    f_n = n!, which the caller holds already.  E(m) = sum over squarefree s | m of mu(s) * L(m/s), with L(d) the
    permutations whose cycle lengths all divide d.  The cycles split at t
    = `_small_cycle_limit(n)`: short ones (<= t) are read from a scaled
    column of `_divide_columns`, a_e[r] = W_e(r) * n!/r! with W_e(r) the
    permutations of [r] whose lengths are <= t and divide e, and the rest
    are walked.  For e = 1 only fixed points are short and a_e[r] = n!/r!,
    with no recurrence: `_falling_products` builds it for the key rows
    alone.  A walk node that leaves r labels over, with weight
    prod(j^c * c!), holds n!/(weight * r!) layouts of its cycles, times
    W_e(r): that is a_e[r] / weight.

    A prime power q = p^a of m that no short cycle reaches (q > t) gives
    the terms of s and s * p the same column, so they cancel on every
    node whose cycles do not carry q (have no length divisible by q).  The
    same holds for a q <= t once the walk takes every cycle that carries
    it.  `_plan_split` picks these big q: s runs over the primes of the
    small q alone, and a node counts only when its cycles carry every big
    q.  A node whose cycles carry the small q in C counts for every s
    disjoint from C, so the columns are summed, one at a time, into
    sum over s disjoint from C of mu(s) a_{e(s)}[r] at each key (r, C) of
    the walk, and each node divides its key's sum by its weight.  A
    remainder raises, and so does a count below 1, since m must be
    achievable.
    """
    m = f.value
    divisors = DivisorLattice(f).divisors
    split, keys = _plan_split(n, f, divisors, f_n.bit_length())
    n_small = len(split.small)
    rows = {key >> n_small for key in keys}
    falling = _falling_products(n, rows) if split.terms[-1][2] == 1 else None
    short = [j for j in divisors if j <= split.t]
    last = max(rows)
    signed = dict.fromkeys(keys, 0)
    for bits, sign, e in split.terms:
        # One generator per column, so that no column outlives its term.
        col = falling if e == 1 else next(_divide_columns(n, short, (e,), last))
        for key in signed:
            if not key & bits:
                signed[key] += sign * col[key >> n_small]
        col = None
    count = 0
    for key, weight in split.nodes(n):
        q, rem = divmod(signed[key], weight)
        if rem:
            raise RuntimeError(
                f"internal inconsistency at n={n}: scaled row {key >> n_small} "
                f"is not divisible by the cycle weight {weight}"
            )
        count += q
    if count < 1:
        raise RuntimeError(
            f"internal inconsistency at n={n}: count {count} for achievable order {m}"
        )
    return count


def p_exact(n: int, m: int) -> Fraction:
    """P(ord = m) for a uniform random permutation of [n], exactly.

    Only order m is counted (`_count_order`): the sum of mu(s) L(m/s) over
    squarefree s | m, split between one walk over long cycles, which
    cancels the terms of m's big prime powers, and one scaled column of
    n + 1 ints per remaining term, each released before the next is
    built.  An n above P_EXACT_MAX_N raises `BudgetExceededError` before
    any work is done.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if n > P_EXACT_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds P_EXACT_MAX_N={P_EXACT_MAX_N}")
    # m is an achievable order iff its maximal prime powers fit into [n]
    # as disjoint cycles; everything else can be padded with fixed points.
    # So only primes <= n are divided out: a cofactor left over, or a
    # prime factor > n, rules m out without factorizing it further.
    factors, rem = _trial_factors(m, n)
    if rem > 1 or sum(p**e for p, e in factors) > n:
        return Fraction(0)
    f_n = math.factorial(n)
    return Fraction(_count_order(n, FactoredInt(m, tuple(factors)), f_n), f_n)


# One entry holds up to max_support ints (18 663 at n = 100, about 0.7 MB),
# and callers reuse only the n they are working on.  The budget is part of
# the key, so a lowered DEFAULT_MAX_SUPPORT is never served a cached answer.
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


def support(n: int) -> list[int]:
    """All achievable orders of a permutation of [n], sorted ascending.

    These are exactly the m whose maximal prime-power parts sum to at
    most n; enumerated by a DFS that assigns each prime an exponent and
    charges p^e against the remaining budget.  More than
    DEFAULT_MAX_SUPPORT orders raise `BudgetExceededError`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(_support_values(n, DEFAULT_MAX_SUPPORT))


def _small_cycle_limit(n: int) -> int:
    # Timed as full_pmf(2..100) in one process with the cycles split by
    # lcm(1..t), the scan below runs fastest with t near n/6: 0.75-0.94 s
    # of CPU against 0.80-1.07 s at n // 8, 1.23-1.38 s at n // 5 and
    # 2.5-3.0 s at n // 4 (three runs each, 2-vCPU host); over 2..60,
    # n // 6 also beat n // 4, n // 5 and n // 8.  A larger t widens the
    # table rows (lcm(1..t) gains divisors), a smaller one leaves more
    # partitions to walk.  Under n = 24 every t takes well below a
    # millisecond.  `_plan_split` reads the same rule.
    return max(3, n // 6)


def _small_cycle_table(n: int, t: int) -> list[dict[int, int]]:
    """Row r maps l to #{pi in S_r : all cycle lengths divide L, ord(pi) = l}.

    L = lcm(1..t), so every length up to t counts, and so do longer ones
    that divide L (6 at t = 3, 10 and 12 at t = 5).  The divide-count
    route of `order_counts_on_lattice`, taken over the divisors of L:
    `_divide_columns` gives each divisor's whole column, with the
    divisors up to n as cycle lengths; row r is divided back by n!/r!,
    and `DivisorLattice.mobius_steps` inverts the columns.  Whole
    columns are inverted at once and each cell is dropped as its row is
    read, so the table is held about once.  A negative count means an
    inconsistent column, and raises.
    """
    t = min(t, n)
    lattice = DivisorLattice(factorize(lcm_range(t)))
    divisors = lattice.divisors
    f_n = math.factorial(n)
    scales = [f_n // math.factorial(r) for r in range(n + 1)]
    lengths = [d for d in divisors if d <= n]
    cols: list[list] = [
        [a // s for a, s in zip(col, scales)]
        for col in _divide_columns(n, lengths, divisors, n)
    ]
    for i, k in lattice.mobius_steps():
        cols[i] = [a - b for a, b in zip(cols[i], cols[k])]
    rows = []
    for r in range(n + 1):
        row = {}
        for d, col in zip(divisors, cols):
            c = col[r]
            col[r] = None
            if c:
                if c < 0:
                    raise RuntimeError(
                        f"internal inconsistency at n={n}: "
                        f"negative count {c} for order {d} on {r} labels"
                    )
                row[d] = c
        rows.append(row)
    return rows


def _long_cycle_table(n: int, t: int) -> list[dict[int, tuple[int, ...]]]:
    """Permutations of [s] with no cycle length dividing lcm(1..t), by order, for s <= n.

    Row s maps g to the flat tuple (h, c, h', c', ...): c permutations
    have order g * h, with g = gcd(order, lcm(1..t)) and h = order // g.
    One walk over the lengths j <= n that do not divide lcm(1..t), all
    longer than t, as partitions of at most n labels by descending part
    size, fills every row: a node that uses s labels with multiplicities
    c_j holds s!/prod(j^c_j * c_j!) permutations.
    """
    big_l = lcm_range(t)
    facts = [math.factorial(s) for s in range(n + 1)]
    rows: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n + 1)]
    lcm = math.lcm
    gcd = math.gcd
    # The walked lengths, descending, and for each number of free labels
    # the index of the first one that fits.
    parts = [j for j in range(n, 0, -1) if big_l % j]
    fits = [sum(j > free for j in parts) for free in range(n + 1)]
    # (labels used, index of the largest part left, prod(j^c * c!), lcm of the parts).
    stack = [(0, 0, 1, 1)]
    while stack:
        s, first, denom, value = stack.pop()
        g = gcd(value, big_l)
        by_h = rows[s].setdefault(g, {})
        h = value // g
        by_h[h] = by_h.get(h, 0) + facts[s] // denom
        for i in range(max(first, fits[n - s]), len(parts)):
            j = parts[i]
            vj = lcm(value, j)
            weight = denom
            c = 0
            while s + j * (c + 1) <= n:
                c += 1
                weight *= j * c
                stack.append((s + j * c, i + 1, weight, vj))
    # The table is kept for a whole band, and a flat tuple per g takes less
    # than half the memory of the dict that summed it.
    chain = itertools.chain.from_iterable
    return [{g: tuple(chain(by_h.items())) for g, by_h in row.items()} for row in rows]


# The last pair of tables built, small-cycle and long-cycle, under their
# clipped limit t.  Row r of either table depends on t alone, not on the n
# it was built for, so one pair serves every n whose clipped t matches and
# whose rows it holds.  At most one pair is alive: the slot is emptied
# before the next build.
_Tables = tuple[list[dict[int, int]], list[dict[int, tuple[int, ...]]]]
_TABLE_SLOT: dict[int, _Tables] = {}


def _cycle_tables(n: int, t: int) -> _Tables:
    """Rows 0..n (or more) of `_small_cycle_table` and `_long_cycle_table`.

    t is the limit clipped to n.  A miss builds both tables up to the
    largest n' <= n + 5 whose clipped limit is the same t, so a run over
    consecutive n builds them once per band of the `_small_cycle_limit`
    rule, in either direction.
    """
    tables = _TABLE_SLOT.get(t)
    if tables is None or len(tables[0]) <= n:
        _TABLE_SLOT.clear()
        top = max(k for k in range(n, n + 6) if min(_small_cycle_limit(k), k) == t)
        tables = _TABLE_SLOT[t] = (
            _small_cycle_table(top, t),
            _long_cycle_table(top, t),
        )
    return tables


# Keyed on the support budget as well, like `_support_values`.
@lru_cache(maxsize=1)
def _full_counts(n: int, max_support: int) -> tuple[tuple[int, int], ...]:
    entries = dict.fromkeys(_support_values(n, max_support), 0)
    t = min(_small_cycle_limit(n), n)
    small, long = _cycle_tables(n, t)
    lcm = math.lcm
    comb = math.comb

    # Meet in the middle.  A permutation of [n] splits into s labels in
    # cycles whose lengths do not divide L = lcm(1..t) and n - s labels in
    # cycles whose lengths do: C(n, s) ways to choose the labels, long-table
    # row s for the first and small-table row n - s for the second, of
    # order lcm(g * h, l).  Every such l divides L and g = gcd(g * h, L),
    # so lcm(g * h, l) = h * lcm(g, l): row n - s is collapsed under
    # l -> lcm(g, l) once per g, with additions only, and each h's ways
    # are spread over it, one product per (h, y) cell.
    try:
        for s in range(n + 1):
            row = small[n - s]
            b = comb(n, s)
            for g, hw in long[s].items():
                col: dict[int, int] = {}
                for ell, c in row.items():
                    y = lcm(g, ell)
                    col[y] = col.get(y, 0) + c
                pairs = iter(hw)
                for h, w in zip(pairs, pairs):
                    w *= b
                    for y, c in col.items():
                        entries[h * y] += w * c
    except KeyError as exc:
        raise RuntimeError(
            f"internal inconsistency at n={n}: order {exc.args[0]} is not in support({n})"
        ) from None
    missing = [m for m, c in entries.items() if c == 0]
    if missing:
        raise RuntimeError(
            f"internal inconsistency at n={n}: no partition produced lcm "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    if sum(entries.values()) != math.factorial(n):
        raise RuntimeError(f"internal inconsistency at n={n}: the counts do not sum to n!")
    return tuple(sorted(entries.items()))


def full_pmf(n: int) -> OrderPmf:
    """The complete exact pmf of the order, as counts out of n!.

    Computed by merging the small- and long-cycle tables of
    `_small_cycle_table` and `_long_cycle_table`; the small table and the
    point counts share one divide-count route.  The counts must sum to n!
    and the nonzero keys must equal support(n), which checks the whole
    result: a product outside support(n), a zero count or a wrong total
    raises RuntimeError.  An n above DEFAULT_MAX_N, or a support larger
    than DEFAULT_MAX_SUPPORT, raises `BudgetExceededError`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > DEFAULT_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds max_n={DEFAULT_MAX_N}")
    return OrderPmf(n=n, entries=dict(_full_counts(n, DEFAULT_MAX_SUPPORT)))


def mode(n: int) -> ModeResult:
    """All most-likely orders: every argmax of the exact pmf, ties kept."""
    entries = full_pmf(n).entries
    best = max(entries.values())
    argmax = tuple(sorted(m for m, c in entries.items() if c == best))
    return ModeResult(
        n=n, argmax=argmax, max_count=best, max_prob=Fraction(best, math.factorial(n))
    )


def collision_norm(n: int) -> Fraction:
    """P(two independent uniform permutations of [n] have the same order)."""
    pmf = full_pmf(n)
    fact_sq = math.factorial(n) ** 2
    return Fraction(sum(c * c for c in pmf.entries.values()), fact_sq)


def tail_max(n: int, eps: Fraction | int | str) -> tuple[int, Fraction] | None:
    """Most likely order among those >= n^(1+eps); None if that tail is empty.

    eps must be a positive rational p/q; the cutoff m >= n^(1+p/q) is
    evaluated exactly as m**q >= n**(p+q).  That test is monotone in m, so
    the first qualifying m is found by bisecting the sorted support, with
    about log2 |support| powers.  On tied counts the smallest qualifying m
    is returned.  A cutoff of more than TAIL_MAX_BITS bits, counted as
    (p + q) * n.bit_length(), raises `BudgetExceededError` before any work.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    p, q = eps.numerator, eps.denominator
    bits = (p + q) * n.bit_length()
    if bits > TAIL_MAX_BITS:
        raise BudgetExceededError(
            f"cutoff n**(p+q) of up to {bits} bits exceeds TAIL_MAX_BITS={TAIL_MAX_BITS}"
        )
    entries = full_pmf(n).entries
    orders = sorted(entries)
    cutoff = n ** (p + q)
    start = bisect.bisect_left(orders, True, key=lambda m: m**q >= cutoff)
    if start == len(orders):
        return None
    # max keeps the first of equal counts, so ties go to the smallest m.
    m = max(orders[start:], key=entries.__getitem__)
    return m, Fraction(entries[m], math.factorial(n))


def count_restricted_cycles(n: int, cycles: int, allowed: Iterable[int]) -> int:
    """Permutations of [n] with exactly `cycles` cycles, all lengths in `allowed`.

    The falling-factorial recursion of `count_lengths_divide` with the
    number of cycles as a second index: w[nu][c] counts permutations of
    [nu] with c <= `cycles` cycles, and a cycle of length j through the
    largest label moves w[nu-j][c] to w[nu][c+1].
    """
    js = sorted(set(allowed))
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"cycle lengths must lie in 1..{n}, got {j}")
    if n < 0 or cycles < 0:
        raise ValueError(f"need n >= 0 and cycles >= 0, got n={n}, cycles={cycles}")
    w = [[1] + [0] * cycles]
    for nu in range(1, n + 1):
        row = [0] * (cycles + 1)
        ff = 1
        built = 1
        for j in js:
            if j > nu:
                break
            for i in range(built, j):
                ff *= nu - i
            built = j
            prev = w[nu - j]
            for c in range(cycles):
                row[c + 1] += ff * prev[c]
        w.append(row)
    return w[n][cycles]


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
