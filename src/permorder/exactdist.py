"""Exact distribution of the order of a uniform random permutation of [n].

The order of a permutation is the lcm of its cycle lengths.  Everything
here is exact: counts are Python ints and probabilities are Fractions
with denominator n!; no approximate arithmetic appears anywhere in
this module.

Exact-order counts rest on divide-counts: L(d), the permutations whose
cycle lengths all divide d, by peeling the cycle through the largest label
(`_divide_counts`), with Moebius inversion over divisors turning them
into counts of order exactly d.  Each column of counts takes the cheaper,
by an integer estimate of its row cost (`_column_row_cost`), of two exact
recurrences: the falling-factorial one, which makes no division but
multiplies by (nu-1)!/(nu-j)! for each length j, and a scaled one, with
one addition per length and one exact division per row.  Short length
sets on many labels take the first; long ones, and every column on a few
labels but the trivial lengths {1}, the second.  `p_exact` counts order m
alone: it sums mu(s) L(m/s) over squarefree s | m.  Cycles up to t =
`_small_cycle_limit(n)` are read from one column per term, for e =
gcd(m/s, lcm(1..t)), at the rows the walk reads; the rest are walked.
m's prime powers above t, and those `_plan_split` adds by a work
estimate, are cancelled in the walk: their primes take no Moebius term,
and a walk node counts only if its cycles carry every one of them.
One routine, `_lattice_rows`, turns divide-counts into exact-order
counts over a whole divisor lattice: it builds every divisor's column at
the label counts asked for and inverts the exact columns
(`DivisorLattice.mobius_steps`).  `order_counts_on_lattice` reads its
row n for the divisors of m.
The full pmf splits the cycle lengths by whether they divide
L = lcm(1..t), with t clipped to n (`_cycle_tables` decides it).
`_small_cycle_table` is every row of `_lattice_rows` over the divisors
of L, for every label count up to n.  `_long_cycle_table` walks the
partitions into the other lengths once and sums the permutations of
[s], for each label count s, by (g, h) with g = gcd(order, L) and
h = order // g.  The order m alone fixes h = m // gcd(m, L), so the
table is kept by h: the orders fall into disjoint h groups.  Every
order l in the small table divides L, so lcm(g * h, l) = h * lcm(g, l),
and one kernel (`_group_orders`) merges a group: each of its cells
(s, g, w) spreads small-table row n - s under l -> h * lcm(g, l),
weighted by C(n, s) * w.  `full_pmf` merges every group into one dict
over the support.  `mode` holds no pmf: in one pass over the groups it
sums each group's mass and merges, each into a dict of its own, only
the groups whose mass reaches the `_count_order` count of n - k0 (k0
the largest forcing offset), keeping a running argmax.  The rows of
both tables do not depend on n, so the last pair built is kept in a
one-entry slot and serves every n with the same t that it has rows
for.  That slot and a one-entry cache of the last pmf (`_full_counts`,
which `full_pmf` copies out) are the only state kept between calls.
No code in this package calls `order_counts_on_lattice`; it stays as a
reference for the tests.
`count_order_exactly_mobius` runs inclusion-exclusion over prime-exponent
drops on the falling-factorial recursion of `count_lengths_divide`, and
`count_restricted_cycles` runs that recursion with a cycle-count index.
The cross-checks that share nothing with these are the inclusion-exclusion
route, brute-force enumeration (one (cycles, order) table, which
`brute_force_pmf` sums over cycles) and the reference code in
tests/helpers.py.

Every size limit is a module constant, read when the call is made:
DEFAULT_MAX_N for the full pmf, everything read off it and `mode`,
DEFAULT_MAX_SUPPORT for the full pmf and everything read off it,
P_EXACT_MAX_N for point queries, P_EXACT_MAX_WORK for the work that
`_plan_split` estimates for one count of order m (a point query, or
`mode`'s count of n - k0), and TAIL_MAX_BITS for the cutoff of
`tail_max`.  The support budget is checked as the support is
enumerated, the work budget as the plan is made, before any column, and
the others before any work.  Raising a budget means assigning the
constant, e.g. ``exactdist.DEFAULT_MAX_N = 120``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .numtheory import (
    BudgetExceededError,
    DivisorLattice,
    FactoredInt,
    _trial_factors,
    compute_forcing_set,
    factorize,
    lcm_range,
    primes_up_to,
)

DEFAULT_MAX_N = 100
# p_exact(n, n) took 4.3 s of CPU at n = 5040 and 22 s at n = 10 080, with
# peak RSS 51 MB and 170 MB, on a 2-vCPU host, with P_EXACT_MAX_WORK lifted
# (both are refused by it).  One column holds up to n + 1 ints of up to
# log2(n!) bits, so its memory grows like n^2 log n; at n = 100 000 it
# would need about 19 GB.
P_EXACT_MAX_N = 10_000
# The work `_plan_split` estimates for one count of order m, in its units of
# about 0.04 ns on a 2-vCPU host: some 0.15 s of work.  The heaviest order
# of the `points` workload (seeds 1-20), p_exact(772, 770), is estimated at
# 6.1 * 10^8, tier-1's largest (p_exact(900, 2520)) at 2.7 * 10^9, and m
# the product of the primes up to 61 on 600 labels at 4.1 * 10^9.
P_EXACT_MAX_WORK = 35 * 10**8
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


def _divide_counts(
    top: int, lengths: Sequence[int], rows: Sequence[int], scales: dict[int, int]
) -> list[int]:
    """W(r) at each r in ``rows`` (ascending, up to n), exactly.

    W(r) counts the permutations of [r] whose cycle lengths all lie in
    ``lengths``, which ascend from 1.  ``top`` = n! and ``scales`` maps
    each row r to n!/r! (`_falling_products`).  Two exact recurrences peel
    the cycle through the largest label; `_column_row_cost` picks the
    cheaper for this column:

    - falling-factorial, W(nu) = sum over j in lengths of
      (nu-1)!/(nu-j)! * W(nu-j), that of `count_lengths_divide`: no
      division, and W is shorter than nu!, but the multiplier of a long
      cycle has many digits;
    - scaled, a[nu] = W(nu) * n!/nu! from a[0] = n!, so that
      nu * a[nu] = sum over j of a[nu-j]: one addition per length and one
      division by nu per row, on ints of about log2(n!) bits.  The
      division is exact because a[nu] is an integer; a remainder means a
      broken recurrence, and raises.  Row r is a[r] divided back by
      n!/r!.

    Rows past rows[-1] are not built.
    """
    last = rows[-1]
    if _column_row_cost(lengths, last, top.bit_length())[1]:
        perm = math.perm
        longer = lengths[1:]
        # Below the second length only fixed points fit: W = 1 there.
        w = [1] * (last + 1)
        for nu in range(longer[0] if longer else last + 1, last + 1):
            acc = w[nu - 1]
            ff = 1
            prev = 1
            for j in longer:
                if j > nu:
                    break
                ff *= perm(nu - prev, j - prev)
                prev = j
                acc += ff * w[nu - j]
            w[nu] = acc
        return [w[r] for r in rows]
    a = [top] + [0] * last
    for nu in range(1, last + 1):
        s = 0
        for j in lengths:
            if j > nu:
                break
            s += a[nu - j]
        q, rem = divmod(s, nu)
        if rem:
            raise RuntimeError(
                f"internal inconsistency: scaled row {nu} of the column "
                f"for lengths {list(lengths)} is not divisible by {nu}"
            )
        a[nu] = q
    return [a[r] // scales[r] for r in rows]


def _lattice_rows(
    n: int, lattice: DivisorLattice, rows: Sequence[int]
) -> list[dict[int, int]]:
    """For each r in ``rows`` (ascending, up to n), d -> #{pi in S_r : ord(pi) = d}.

    d runs over the divisors of the lattice's top m, so the permutations
    counted are those whose cycle lengths all divide m.  L(d), the
    permutations whose cycle lengths all divide d, is the sum of the
    exact-order counts E(d') over d' | d, so Moebius inversion over the
    lattice (`DivisorLattice.mobius_steps`) turns L into E.
    `_divide_counts` gives each divisor's column of L at the rows asked
    for, exact, with the divisors up to n as cycle lengths, so the
    inversion runs on exact counts.  A negative count means an
    inconsistent column, and raises.
    """
    divisors = lattice.divisors
    lengths = [d for d in divisors if d <= n]
    top = math.factorial(n)
    scales = _falling_products(n, rows)
    cols = [
        _divide_counts(top, [j for j in lengths if d % j == 0], rows, scales)
        for d in divisors
    ]
    for i, k in lattice.mobius_steps():
        cols[i] = [a - b for a, b in zip(cols[i], cols[k])]
    out = []
    for i, r in enumerate(rows):
        row = {}
        for d, col in zip(divisors, cols):
            c = col[i]
            if c:
                if c < 0:
                    raise RuntimeError(
                        f"internal inconsistency at n={n}: "
                        f"negative count {c} for order {d} on {r} labels"
                    )
                row[d] = c
        out.append(row)
    return out


def order_counts_on_lattice(n: int, f: FactoredInt) -> LatticeCountVector:
    """Exact-order counts for all divisors of f.value at once.

    Row n of `_lattice_rows` over the divisor lattice of m = f.value.  That
    costs sum over d | m of tau(d) additions per label, against tau(m) per
    cycle length for a DP that carries the running lcm.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    (counts,) = _lattice_rows(n, DivisorLattice(f), [n])
    return LatticeCountVector(n=n, counts=counts)


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
# a bigint addition; b = log2(n!) bits.  A scaled column row makes |J|
# additions and a divmod by nu on ints of b bits, each with its interpreter
# steps.  A falling-factorial row makes, for each length j > 1, a product
# by a multiplier of d_j digits on ints shorter than n!, plus steps.  A
# walk node is walked twice and divides its key's sum of about b bits by
# its weight of w bits.  A key takes one addition per Moebius term and one
# product by n!/r!.  The walk's need table costs a step per cell.  Least
# squares on relative error, over the `points` orders of seeds 1-6
# (n = 201..800) and `mode`'s counts of n - k0 at n = 3..60 and 121..150
# (about 870 columns timed on both recurrences, 388 walks), gave about
# 0.04 ns per unit on a 2-vCPU host: a scaled row (|J| + 4)(b + 1 000)
# units, a falling-factorial row b sum d_j / 3 + 3 600 |J|, a node
# 3 b + b w / 9 + 35 000, a key (terms + 22) b and a need cell 4 000 (the
# rate of the large tables; a small one costs more per cell).
_ROW_DIVISION_WEIGHT = 4
_ROW_STEP = 1000
_DIGIT_SHARE = 3
_FALLING_STEP = 3600
_NODE_WEIGHT = 3
_NODE_WEIGHT_BITS = 9
_NODE_STEP = 35_000
_KEY_WEIGHT = 22
_NEED_CELL = 4000
_PLAN_MARGIN = 4


def _column_row_cost(lengths: Sequence[int], last: int, bits: int) -> tuple[int, bool]:
    """Estimated work of one column row, and whether it is falling-factorial.

    ``lengths`` ascend from 1, the column runs to row ``last`` <= n, and
    ``bits`` = log2(n!).  A scaled row makes |J| additions and one
    division on ints of ``bits`` bits.  A falling-factorial row makes no
    division, and its ints are shorter, but for each length j > 1 it
    multiplies by (nu-1)!/(nu-j)!, a product of j - 1 factors below last,
    at a cost that grows with that multiplier's digits: counted together,
    the sum over j > 1 of 1 + (j - 1) w / D, w the bit length of last - 1
    and D the bits of an int digit.  The cheaper of the two is the
    column's.
    """
    k = len(lengths)
    width = max(last - 1, 1).bit_length()
    digits = k - 1 + (sum(lengths) - k) * width // sys.int_info.bits_per_digit
    scaled = (k + _ROW_DIVISION_WEIGHT) * (bits + _ROW_STEP)
    falling = digits * bits // _DIGIT_SHARE + _FALLING_STEP * k
    return (falling, True) if falling < scaled else (scaled, False)


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
) -> Iterator[tuple[int, int, int]]:
    """Yield (s bits, mu(s), e) for each squarefree s over the primes of ``small``.

    Bit b of s stands for the prime of small[b].  The column of term s
    counts the short cycles that divide m/s and carry no big q, that is
    the lengths <= t dividing e = gcd(d, lcm(1..t)) with d = m / (s * the
    primes of ``big``).  e = 1, if it occurs, is the last term's.
    """
    big_l = lcm_range(t)
    base = m // math.prod(p for p, _ in big)
    for bits in range(1 << len(small)):
        sign = 1
        d = base
        for b, (p, _) in enumerate(small):
            if bits >> b & 1:
                sign = -sign
                d //= p
        yield bits, sign, math.gcd(d, big_l)


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
    largest first: each halves the columns and grows the walk.
    ``divisors`` are m's divisors up to n, ascending, and ``bits`` =
    log2(n!).  The work estimate, in integers only, charges each column
    its rows up to n minus the big q, at the cost `_column_row_cost` gives
    its lengths J_e, the lengths <= t dividing e; the walk's table
    ``need``, at most (divisors up to n) * 2^(big q) cells; and each node
    and key of the walk a weight.  The walk is counted, without its
    divisions, only while the candidate can still win.  The search stops
    at the first candidate whose estimate does not fall.

    A candidate whose estimate reaches P_EXACT_MAX_WORK is not taken: its
    Moebius terms are costed, and its walk counted, no further, and one
    whose columns alone must reach it is not enumerated.  If no candidate
    comes in under it,
    `BudgetExceededError` is raised, before any column is built.
    """
    m = f.value
    t = min(_small_cycle_limit(n), n)
    short = [j for j in divisors if j <= t]
    pqs = sorted(((p, p**a) for p, a in f.factors), key=operator.itemgetter(1))
    node_cost = _NODE_WEIGHT * bits + _NODE_STEP
    top = sum(q <= t for _, q in pqs)
    # Each column's cost a row, by e (the candidates share many e), and
    # that of the cheapest column, of the lengths {1}.
    row_costs: dict[int, int] = {}
    least_row = _column_row_cost((1,), n, bits)[0]
    best = best_keys = None
    best_cost = P_EXACT_MAX_WORK
    for n_small in range(top, -1, -1):
        small, big = tuple(pqs[:n_small]), tuple(pqs[n_small:])
        # Walking a candidate to count its nodes takes time of its own, so
        # once one is taken, another is walked only if its least walk
        # leaves a quarter to save.
        bound = best_cost if best is None else best_cost - best_cost // _PLAN_MARGIN
        # A node that counts holds cycles carrying each big q, at least q
        # labels apiece, so no key row passes n minus their sum.
        last = n - sum(q for _, q in big)
        cost = _NEED_CELL * (len(divisors) << len(big))
        if cost + (last * least_row << n_small) >= bound:
            if best is None:
                continue
            break
        # The terms are costed as they are made: the cost only grows, so
        # the candidate is dropped at the first that takes it to the bound.
        terms = []
        least_walk = 0
        for term in _moebius_terms(m, t, small, big):
            e = term[2]
            if e not in row_costs:
                js = [j for j in short if e % j == 0]
                row_costs[e] = _column_row_cost(js, n, bits)[0]
            cost += last * row_costs[e]
            if cost >= bound:
                break
            terms.append(term)
        else:
            if n_small < top:
                least_walk = _least_walk_cost(n, divisors, big, bits)
            else:
                least_walk = node_cost
        if cost + least_walk >= bound:
            if best is None:
                continue
            break
        split = _Split(n, divisors, t, small, big, tuple(terms))
        keys = set()
        for key, weight in split.nodes(n):
            cost += node_cost + bits * weight.bit_length() // _NODE_WEIGHT_BITS
            if key not in keys:
                keys.add(key)
                cost += (len(terms) + _KEY_WEIGHT) * bits
            if cost >= best_cost:
                break
        else:
            best, best_cost, best_keys = split, cost, keys
            continue
        if best is not None:
            break
    if best is None:
        raise BudgetExceededError(
            f"p_exact(n={n}, m={m}): estimated work exceeds "
            f"P_EXACT_MAX_WORK={P_EXACT_MAX_WORK}"
        )
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


def _divisors_up_to(f: FactoredInt, top: int) -> list[int]:
    """The divisors of f.value up to ``top``, ascending.

    Only these can be cycle lengths on ``top`` labels, and there are at
    most ``top`` of them, however many divisors f.value has.
    """
    divs = [1]
    for p, e in f.factors:
        more = []
        for d in divs:
            for _ in range(e):
                d *= p
                if d > top:
                    break
                more.append(d)
        divs += more
    divs.sort()
    return divs


def _add_term(
    signed: dict[int, int], n_small: int, bits: int, sign: int, col: dict[int, int]
) -> None:
    """Add sign * col[r] at each key (r, C) of ``signed`` with C disjoint from ``bits``."""
    for key in signed:
        if not key & bits:
            signed[key] += sign * col[key >> n_small]


def _count_order(n: int, f: FactoredInt, f_n: int) -> int:
    """#{pi in S_n : ord(pi) = f.value}, counting order m = f.value alone.

    f_n = n!, which the caller holds already.  E(m) = sum over squarefree s | m of mu(s) * L(m/s), with L(d) the
    permutations whose cycle lengths all divide d.  The cycles split at t
    = `_small_cycle_limit(n)`: short ones (<= t) are read from a column of
    `_divide_counts`, W_e(r) the permutations of [r] whose lengths are
    <= t and divide e, at the rows r the walk reads, and the rest are
    walked.  For e = 1 only fixed points are short: the lengths {1} and
    W_e(r) = 1.  A walk node that leaves r labels over, with weight
    prod(j^c * c!), holds n!/(weight * r!) layouts of its cycles, times
    W_e(r).

    A prime power q = p^a of m that no short cycle reaches (q > t) gives
    the terms of s and s * p the same column, so they cancel on every
    node whose cycles do not carry q (have no length divisible by q).  The
    same holds for a q <= t once the walk takes every cycle that carries
    it.  `_plan_split` picks these big q: s runs over the primes of the
    small q alone, and a node counts only when its cycles carry every big
    q.  A node whose cycles carry the small q in C counts for every s
    disjoint from C, so the columns are summed, one at a time
    (`_add_term`), into sum over s disjoint from C of mu(s) W_{e(s)}[r]
    at each key (r, C) of the walk.  Each key's sum is scaled once by
    n!/r! (`_falling_products`), and each node divides its key's scaled
    sum by its weight.  A remainder raises, and so does a count below 1,
    since m must be achievable.
    """
    m = f.value
    divisors = _divisors_up_to(f, n)
    split, keys = _plan_split(n, f, divisors, f_n.bit_length())
    n_small = len(split.small)
    rows = sorted({key >> n_small for key in keys})
    scales = _falling_products(n, rows)
    short = [j for j in divisors if j <= split.t]
    signed = dict.fromkeys(keys, 0)
    for bits, sign, e in split.terms:
        counts = _divide_counts(f_n, [j for j in short if e % j == 0], rows, scales)
        _add_term(signed, n_small, bits, sign, dict(zip(rows, counts)))
    for key in signed:
        signed[key] *= scales[key >> n_small]
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
    cancels the terms of m's big prime powers, and one column of at most
    n + 1 ints per remaining term, each released before the next is
    built.  An n above P_EXACT_MAX_N raises `BudgetExceededError` before
    any work is done, and so does a plan whose estimated work exceeds
    P_EXACT_MAX_WORK, before any column is built.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if n > P_EXACT_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds P_EXACT_MAX_N={P_EXACT_MAX_N}")
    f = _achievable(m, n)
    if f is None:
        return Fraction(0)
    f_n = math.factorial(n)
    return Fraction(_count_order(n, f, f_n), f_n)


def _achievable(m: int, n: int) -> FactoredInt | None:
    """m factorized if some permutation of [n] has order m, else None.

    m is an achievable order iff its maximal prime powers fit into [n] as
    disjoint cycles; everything else can be padded with fixed points.  So
    only primes <= n are divided out: a cofactor left over, or a prime
    factor > n, rules m out without factorizing it further.
    """
    factors, rem = _trial_factors(m, n)
    if rem > 1 or sum(p**e for p, e in factors) > n:
        return None
    return FactoredInt(m, tuple(factors))


def support(n: int) -> list[int]:
    """All achievable orders of a permutation of [n], sorted ascending.

    These are exactly the m whose maximal prime-power parts sum to at
    most n; enumerated by a DFS that assigns each prime an exponent and
    charges p^e against the remaining budget.  More than
    DEFAULT_MAX_SUPPORT orders raise `BudgetExceededError`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    primes = primes_up_to(n)
    max_support = DEFAULT_MAX_SUPPORT
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
    return sorted(out)


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
    that divide L (6 at t = 3, 10 and 12 at t = 5).  These are the rows
    0..n of `_lattice_rows` over the divisors of L.
    """
    return _lattice_rows(n, DivisorLattice(factorize(lcm_range(t))), range(n + 1))


def _long_cycle_table(n: int, t: int) -> dict[int, tuple[int, ...]]:
    """Permutations of [s] with no cycle length dividing lcm(1..t), by order, for s <= n.

    Maps h to the flat tuple (s, g, c, s', g', c', ...), ascending in s:
    c permutations of [s] have order g * h, with g = gcd(order, lcm(1..t))
    and h = order // g.  One walk over the lengths j <= n that do not
    divide lcm(1..t), all longer than t, as partitions of at most n labels
    by descending part size, fills every group: a node that uses s labels
    with multiplicities c_j holds s!/prod(j^c_j * c_j!) permutations.
    """
    big_l = lcm_range(t)
    facts = [math.factorial(s) for s in range(n + 1)]
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(n + 1)]
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
    # The table is kept for a whole band, so it is held as one flat tuple
    # per h, not as the dicts that summed it.
    groups: dict[int, list[int]] = {}
    for s, row in enumerate(rows):
        for g, by_h in row.items():
            for h, c in by_h.items():
                groups.setdefault(h, []).extend((s, g, c))
    return {h: tuple(cells) for h, cells in groups.items()}


# The last tables built, under their clipped limit t, as the tuple (small-cycle
# table, long-cycle table, small-table row totals).  Row r of the small table
# and the long table's cells for s labels depend on t alone, not on the n
# they were built for, so one entry serves every n whose clipped t matches
# and whose rows it holds.  At most one entry is alive: the slot is emptied
# before the next build.
_TABLE_SLOT: dict[int, tuple] = {}


def _cycle_tables(n: int) -> tuple:
    """The slot entry holding rows 0..n (or more) of both tables.

    That is (`_small_cycle_table`, `_long_cycle_table`, R) with R(r) the
    total of small-table row r, for t = `_small_cycle_limit(n)` clipped to
    n.  A miss builds both tables up to the largest n' <= n + 5 whose
    clipped limit is the same t, so a run over consecutive n builds them
    once per band of the `_small_cycle_limit` rule, in either direction.
    """
    t = min(_small_cycle_limit(n), n)
    tables = _TABLE_SLOT.get(t)
    if tables is None or len(tables[0]) <= n:
        _TABLE_SLOT.clear()
        top = max(k for k in range(n, n + 6) if min(_small_cycle_limit(k), k) == t)
        small = _small_cycle_table(top, t)
        tables = _TABLE_SLOT[t] = (
            small,
            _long_cycle_table(top, t),
            [sum(row.values()) for row in small],
        )
    return tables


def _group_orders(
    n: int,
    small: list[dict[int, int]],
    binom: list[int],
    h: int,
    cells: tuple[int, ...],
    out: dict[int, int],
) -> None:
    """Add to ``out`` the permutations of [n] of each order in h's group.

    Meet in the middle.  A permutation of [n] splits into s labels in
    cycles whose lengths do not divide L = lcm(1..t) and n - s labels in
    cycles whose lengths do: C(n, s) = binom[s] ways to choose the labels,
    a long-table cell (s, g, w) for the first and small-table row n - s
    for the second, of order lcm(g * h, l).  Every such l divides L and
    g = gcd(g * h, L), so lcm(g * h, l) = h * lcm(g, l): each cell with
    s <= n adds C(n, s) * w * c to order h * lcm(g, l) for each (l, c) in
    row n - s.  The cells ascend in s, so the first with s > n ends the
    group.
    """
    lcm = math.lcm
    get = out.get
    it = iter(cells)
    for s, g, w in zip(it, it, it):
        if s > n:
            break
        w *= binom[s]
        for ell, c in small[n - s].items():
            m = h * lcm(g, ell)
            out[m] = get(m, 0) + w * c


# The one pmf kept between calls: the last n's checked counts, which
# `full_pmf` hands out copied.  `support` reads DEFAULT_MAX_SUPPORT itself;
# the budget is part of the key only so that a lowered DEFAULT_MAX_SUPPORT
# is never served a cached pmf.
@lru_cache(maxsize=1)
def _full_counts(n: int, max_support: int) -> dict[int, int]:
    entries = dict.fromkeys(support(n), 0)
    size = len(entries)
    small, groups, _ = _cycle_tables(n)
    binom = [math.comb(n, s) for s in range(n + 1)]
    for h, cells in groups.items():
        _group_orders(n, small, binom, h, cells, entries)
    if len(entries) != size:
        # The merge adds any order it makes that the support lacks at the end.
        extra = next(itertools.islice(entries, size, None))
        raise RuntimeError(
            f"internal inconsistency at n={n}: order {extra} is not in support({n})"
        )
    missing = [m for m, c in entries.items() if c == 0]
    if missing:
        raise RuntimeError(
            f"internal inconsistency at n={n}: no partition produced lcm "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    if sum(entries.values()) != math.factorial(n):
        raise RuntimeError(f"internal inconsistency at n={n}: the counts do not sum to n!")
    # Ascending: the keys are the sorted support, and the merge only adds
    # to their values.
    return entries


def full_pmf(n: int) -> OrderPmf:
    """The complete exact pmf of the order, as counts out of n!.

    Every h group of the long-cycle table is merged with the small-cycle
    table (`_group_orders`) into one dict seeded with support(n); the
    small table and the point counts share one divide-count route.  The
    counts must sum to n! and the nonzero keys must equal support(n),
    which checks the whole result: a product outside support(n), a zero
    count or a wrong total raises RuntimeError.  The entries ascend in
    m.  The last n's counts are kept, and each call returns a copy of
    them.  An n above DEFAULT_MAX_N, or a support larger than
    DEFAULT_MAX_SUPPORT, raises `BudgetExceededError`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > DEFAULT_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds max_n={DEFAULT_MAX_N}")
    return OrderPmf(n=n, entries=dict(_full_counts(n, DEFAULT_MAX_SUPPORT)))


def mode(n: int) -> ModeResult:
    """All most-likely orders of a permutation of [n], ties kept, without the pmf.

    T = count(n - k0), with k0 the largest forcing offset, is counted by
    `_count_order`, the route of `p_exact`.  The most likely orders count
    T or more.  One pass over the h groups sums each group's mass, the
    total of its orders' counts, and merges only the groups whose mass
    reaches T, each into a dict of its own by the kernel of `full_pmf`
    (`_group_orders`), read into a running argmax that keeps every tie.
    No pmf or support is held, and no more than one group's orders.
    Checks, each raising RuntimeError: the group masses sum to n!; the
    merged count of n - k0 equals T, two independent routes agreeing;
    every argmax is an achievable order (`_achievable`, the test of
    `p_exact`).  An n above DEFAULT_MAX_N raises `BudgetExceededError`
    before any work is done; DEFAULT_MAX_SUPPORT does not apply.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > DEFAULT_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds max_n={DEFAULT_MAX_N}")
    f_n = math.factorial(n)
    expected = n - compute_forcing_set(n).max_k
    # n - k0 is always achievable; were it refused, the count 0 would fail
    # the cross-check against the merge below.
    f = _achievable(expected, n)
    target = 0 if f is None else _count_order(n, f, f_n)
    small, groups, totals = _cycle_tables(n)
    binom = [math.comb(n, s) for s in range(n + 1)]
    # A group's mass is the sum of its orders' counts: the sum over its cells
    # (s, g, w) with s <= n of C(n, s) * R(n - s) * w, R the small-table row
    # totals.  No order of a group whose mass is below T counts T or more.
    weights = [b * totals[n - s] for s, b in enumerate(binom)]
    best = merged = whole = 0
    argmax: list[int] = []
    for h, cells in groups.items():
        mass = 0
        it = iter(cells)
        for s, _, w in zip(it, it, it):
            if s > n:
                break
            mass += weights[s] * w
        whole += mass
        if mass < target:
            continue
        orders: dict[int, int] = {}
        _group_orders(n, small, binom, h, cells, orders)
        # The groups are disjoint, so one of them at most holds n - k0.
        merged = orders.get(expected, merged)
        top = max(orders.values())
        if top >= best:
            if top > best:
                best = top
                argmax = []
            argmax.extend(m for m, c in orders.items() if c == top)
    if whole != f_n:
        raise RuntimeError(
            f"internal inconsistency at n={n}: the group masses do not sum to n!"
        )
    if merged != target:
        raise RuntimeError(
            f"internal inconsistency at n={n}: the merge counts {merged} "
            f"permutations of order {expected}, the point count {target}"
        )
    argmax.sort()
    for m in argmax:
        if _achievable(m, n) is None:
            raise RuntimeError(
                f"internal inconsistency at n={n}: argmax {m} is not an achievable order"
            )
    return ModeResult(
        n=n, argmax=tuple(argmax), max_count=best, max_prob=Fraction(best, f_n)
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
    orders = list(entries)
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
def _brute_joint(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
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
        key = (len(lengths), math.lcm(*lengths) if lengths else 1)
        joint[key] = joint.get(key, 0) + 1
    return tuple(sorted(joint.items()))


def brute_force_pmf(n: int) -> OrderPmf:
    """Order pmf by direct enumeration of all n! permutations (n <= 9).

    The marginal over orders of `brute_force_joint`, ascending in m.
    """
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force needs 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    pmf: dict[int, int] = {}
    for (_, order), c in _brute_joint(n):
        pmf[order] = pmf.get(order, 0) + c
    return OrderPmf(n=n, entries=dict(sorted(pmf.items())))


def brute_force_joint(n: int) -> dict[tuple[int, int], int]:
    """(number of cycles, order) -> count, by direct enumeration (n <= 9)."""
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force needs 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    return dict(_brute_joint(n))
