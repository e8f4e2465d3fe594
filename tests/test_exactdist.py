"""Tests for the exact order-distribution engine.

Frozen expected values were computed with the independent oracles in
helpers.py (exhaustive S_n enumeration and partition scans) before the
engine was implemented; the oracles never share code with the engine.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from permorder import exactdist, numtheory
from permorder.asymptotics import verify_mode_location
from permorder.exactdist import (
    DEFAULT_MAX_N,
    P_EXACT_MAX_N,
    TAIL_MAX_BITS,
    BudgetExceededError,
    brute_force_joint,
    brute_force_pmf,
    collision_norm,
    count_lengths_divide,
    count_order_exactly_mobius,
    count_restricted_cycles,
    full_pmf,
    mode,
    order_counts_on_lattice,
    p_exact,
    support,
    tail_max,
)
from permorder.numtheory import (
    DivisorLattice,
    compute_forcing_set,
    factorize,
    landau_g,
    tau,
)

ORACLE_MAX_N = 44  # helpers.pmf_by_partitions stays fast up to here
# Where the kernel's small-cycle limit t changes value, and where n <= t so
# the partition walk has no cycles longer than t to place.
RULE_CHANGES = [
    n for n in range(2, DEFAULT_MAX_N + 1)
    if exactdist._small_cycle_limit(n) != exactdist._small_cycle_limit(n - 1)
]
ALL_SMALL = [n for n in range(1, ORACLE_MAX_N + 1) if n <= exactdist._small_cycle_limit(n)]


def oracle_argmax(n: int) -> tuple[int, ...]:
    pmf = helpers.pmf_by_partitions(n)
    best = max(pmf.values())
    return tuple(sorted(m for m, c in pmf.items() if c == best))


def counts_with_limit(n: int, t: int) -> dict[int, int]:
    """full_pmf(n) with the small-cycle limit forced to t."""
    exactdist._full_counts.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactdist, "_small_cycle_limit", lambda _: t)
        entries = full_pmf(n).entries
    exactdist._full_counts.cache_clear()
    return entries


class TestCountLengthsDivide:
    def test_frozen_examples(self):
        # permutations of [3] with all cycle lengths dividing 2: id + 3 transpositions
        assert count_lengths_divide(3, factorize(2)) == 4
        assert count_lengths_divide(3, factorize(6)) == 6
        assert count_lengths_divide(1, factorize(1)) == 1
        assert count_lengths_divide(4, factorize(1)) == 1

    def test_against_partition_oracle(self):
        for n in range(1, 9):
            for d in (1, 2, 3, 4, 6, 12, 30):
                expected = sum(
                    helpers.cycle_type_count(n, parts)
                    for parts in helpers.partitions(n)
                    if all(d % j == 0 for j in parts)
                )
                assert count_lengths_divide(n, factorize(d)) == expected


class TestLatticeCounts:
    def test_frozen_examples(self):
        vec = order_counts_on_lattice(3, factorize(6))
        assert vec.count_for(1) == 1
        assert vec.count_for(2) == 3
        assert vec.count_for(3) == 2
        assert vec.count_for(6) == 0
        assert 6 not in vec.counts  # zero entries are implicit
        assert order_counts_on_lattice(5, factorize(4)).count_for(4) == 30

    def test_identity_count_is_one(self):
        for n in range(1, 10):
            for m in (1, 2, 6, 12):
                assert order_counts_on_lattice(n, factorize(m)).count_for(1) == 1

    def test_total_matches_divides_count(self):
        # summing order-exactly counts over the lattice gives the divides count
        for n in range(1, 10):
            for m in (2, 4, 6, 12, 30):
                vec = order_counts_on_lattice(n, factorize(m))
                assert sum(vec.counts.values()) == count_lengths_divide(n, factorize(m))

    def test_against_enumeration(self):
        for n in range(1, 8):
            pmf = helpers.pmf_by_enumeration(n)
            for m in (1, 2, 3, 4, 6, 12):
                vec = order_counts_on_lattice(n, factorize(m))
                for d, c in vec.counts.items():
                    assert c == pmf.get(d, 0)

    # Point-query sizes: (n, m) with m prime, tau(m) = 16 (210), tau(m) = 24
    # (420, 630), a lattice wider than n (2310 = 2*3*5*7*11), and m = 1;
    # then the edges n = 0 and n = 1.  Then non-squarefree, highly composite
    # m (5040, 102960, 720), m > n (720720, with 240 divisors, and 1024, a
    # prime power beyond n), and n = 2.
    @pytest.mark.parametrize(
        "n, m",
        [(800, 797), (213, 210), (424, 420), (632, 630), (300, 2310), (600, 1),
         (0, 1), (0, 12), (1, 1), (1, 6), (2, 1),
         (800, 5040), (500, 102960), (240, 720), (60, 720720), (10, 1024), (2, 12)],
    )
    def test_against_falling_factorial_dp(self, n, m):
        vec = order_counts_on_lattice(n, factorize(m))
        assert vec.counts == helpers.lattice_counts_by_falling_factorials(n, m)
        assert vec.count_for(m) == count_order_exactly_mobius(n, factorize(m))

    def test_inexact_division_raises(self, monkeypatch):
        # A start row of n! + 1 instead of n! makes the scaled rows stop
        # being divisible; the DP must refuse rather than round.
        real = math.factorial
        monkeypatch.setattr(exactdist.math, "factorial", lambda k: real(k) + 1)
        with pytest.raises(RuntimeError, match="not divisible"):
            order_counts_on_lattice(5, factorize(1))


class TestDivideCountRoute:
    """The lattice counts as divide-counts L(d) plus Moebius inversion."""

    @pytest.mark.parametrize("n, m", [(0, 12), (1, 6), (2, 12), (30, 360), (97, 2310)])
    def test_divide_counts_match_inclusion_exclusion(self, n, m):
        divisors = DivisorLattice(factorize(m)).divisors
        assert exactdist._divide_counts(n, divisors) == [
            count_lengths_divide(n, factorize(d)) for d in divisors
        ]

    def test_negative_count_raises(self, monkeypatch):
        # Divide-counts in the wrong order make L(1) > L(2), which no
        # permutation counts can give: E(2) = L(2) - L(1) < 0.
        real = exactdist._divide_counts
        monkeypatch.setattr(
            exactdist, "_divide_counts", lambda n, divisors: real(n, divisors)[::-1]
        )
        with pytest.raises(RuntimeError, match="negative count"):
            order_counts_on_lattice(6, factorize(12))


class TestMobiusRoute:
    def test_frozen_examples(self):
        assert count_order_exactly_mobius(3, factorize(2)) == 3
        assert count_order_exactly_mobius(5, factorize(6)) == 20

    def test_agrees_with_lattice_dp(self):
        # the two exact routes never share intermediate results
        for n in range(1, 13):
            for m in support(n):
                dp = order_counts_on_lattice(n, factorize(m)).count_for(m)
                assert count_order_exactly_mobius(n, factorize(m)) == dp

    def test_agrees_with_enumeration(self):
        for n in range(1, 8):
            pmf = helpers.pmf_by_enumeration(n)
            for m in support(n):
                assert count_order_exactly_mobius(n, factorize(m)) == pmf.get(m, 0)


class TestPExact:
    def test_frozen_examples(self):
        assert p_exact(3, 2) == Fraction(1, 2)
        assert p_exact(4, 2) == Fraction(3, 8)
        assert p_exact(6, 4) == Fraction(1, 4)
        assert p_exact(65, 60) > Fraction(1, 61)  # contains every 60-cycle

    def test_unachievable_is_zero(self):
        assert p_exact(3, 5) == 0
        assert p_exact(5, 7) == 0
        assert p_exact(4, 6) == 0  # 3+2 > 4
        assert p_exact(10, 1024) == 0

    def test_agrees_with_inclusion_exclusion(self):
        # every m up to 200, achievable or not, including primes beyond n
        for n in range(1, 13):
            for m in range(1, 201):
                expected = count_order_exactly_mobius(n, factorize(m))
                assert p_exact(n, m) == Fraction(expected, math.factorial(n))

    def test_unachievable_m_is_not_factorized(self, monkeypatch):
        calls = []

        def recorder(m):
            calls.append(m)  # and stop: trial division up to sqrt(m) never ends
            raise AssertionError(f"factorize({m}) was called")

        monkeypatch.setattr(exactdist, "factorize", recorder)
        monkeypatch.setattr(numtheory, "factorize", recorder)
        assert p_exact(10, 2**61 - 1) == 0  # a prime > n
        assert p_exact(10, 7 * (2**61 - 1)) == 0  # a cofactor > n
        assert p_exact(12, 2**7 * 3) == 0  # 128 + 3 > 12
        assert p_exact(10, 13) == 0
        assert calls == []
        assert p_exact(10, 12) == Fraction(1, 9)  # achievable: factored in place
        assert calls == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            p_exact(0, 1)
        with pytest.raises(ValueError):
            p_exact(3, 0)


def _mobius_p(n: int, m: int) -> Fraction:
    return Fraction(count_order_exactly_mobius(n, factorize(m)), math.factorial(n))


# sha256 of str(count) for p_exact(n, n) * n!, frozen from the route that
# Moebius-inverted the divide-counts of every divisor of m.
P_EXACT_DIGESTS = {
    720: "4600a30f93a3c8b18d6588ea844d2079839ba823a1c2f1e7b73a7ae8975ddba0",
    840: "946e313ba2a5e50307c195afbb6a687415ad5d9c210f826701f8c7b2a6cfd2b2",
}


class TestOrderOnlyRoute:
    """p_exact counts order m alone, from one column per distinct e."""

    def test_every_order_up_to_60(self, monkeypatch):
        # The oracle's divide-counts are memoized: the orders of one n share
        # most of their divisors d, and each L(d) is then computed once.
        monkeypatch.setattr(
            exactdist, "count_lengths_divide", functools.cache(count_lengths_divide)
        )
        for n in range(1, 61):
            orders = set(support(n))
            for m in orders:
                assert p_exact(n, m) == _mobius_p(n, m), (n, m)
            for m in range(1, 3 * n):
                if m not in orders:
                    assert p_exact(n, m) == 0, (n, m)

    @given(st.integers(min_value=100, max_value=900), st.data())
    @settings(max_examples=12, deadline=None)
    def test_forcing_and_divisor_rich_orders(self, n, data):
        k = data.draw(st.sampled_from(compute_forcing_set(n).members))
        rich = [m for m in range(n // 2, 4 * n + 1) if tau(factorize(m)) >= 12]
        m = data.draw(st.sampled_from(rich))
        assert p_exact(n, n - k) == _mobius_p(n, n - k)
        assert p_exact(n, m) == _mobius_p(n, m)

    @pytest.mark.parametrize("n", sorted(P_EXACT_DIGESTS))
    def test_pinned_highly_composite(self, n):
        count = p_exact(n, n) * math.factorial(n)
        assert count.denominator == 1
        digest = hashlib.sha256(str(count.numerator).encode()).hexdigest()
        assert digest == P_EXACT_DIGESTS[n]

    def test_columns_only_for_distinct_e(self, monkeypatch):
        built = []
        real = exactdist._divide_columns
        monkeypatch.setattr(
            exactdist, "_divide_columns",
            lambda n, lengths, columns, last: real(
                n, lengths, built.extend(columns) or columns, last
            ),
        )
        # 59 is a prime above t = 10, so big: one term, e = 1, no column.
        assert p_exact(60, 59) == Fraction(1, 59)
        assert built == []
        # 120 = 2^3 * 3 * 5 at t = 20: all three small, and every d = 120/s
        # has e = d, so 2^3 columns, not the 16 divisors of 120.
        p_exact(120, 120)
        assert sorted(built) == [4, 8, 12, 20, 24, 40, 60, 120]
        # 64 at t = 10 is big: one term, d = 64/2, e = gcd(32, lcm(1..10)).
        built.clear()
        p_exact(64, 64)
        assert built == [8]
        # 44 = 4 * 11 at t = 10: 11 is big and 4 small, d = 4 and d = 2.
        built.clear()
        p_exact(60, 44)
        assert sorted(built) == [2, 4]
        # 650 = 2 * 5^2 * 13 at t = 108: the walk takes 25 as well, so the
        # terms run over 2 and 13 with d | 650/5: four columns, not eight.
        built.clear()
        p_exact(651, 650)
        assert sorted(built) == [5, 10, 65, 130]
        # g(120) = 2^4 * 3^2 * 5 * 7 * ... * 23: the walk takes every prime
        # power, and the one term's short cycles divide 2^3 * 3 = 24.
        built.clear()
        p_exact(120, landau_g(120))
        assert built == [24]

    def test_columns_stop_at_the_last_key_row(self, monkeypatch):
        built = []
        real = exactdist._divide_columns

        def spy(n, lengths, columns, last):
            for col in real(n, lengths, columns, last):
                built.append((last, len(col)))
                yield col

        monkeypatch.setattr(exactdist, "_divide_columns", spy)
        # g(120): the walk takes all 120 labels, so its one column is read
        # at row 0 alone.
        assert p_exact(120, landau_g(120)) == _mobius_p(120, landau_g(120))
        assert built == [(0, 1)]
        # 724 = 4 * 181 on 725 labels: a node that counts holds a cycle of
        # 181 or 362 or 724 labels, so no key row passes 725 - 181 = 544.
        built.clear()
        assert p_exact(725, 724) == _mobius_p(725, 724)
        assert built and all(last <= 544 and size == last + 1 for last, size in built)

    @given(st.integers(min_value=100, max_value=900), st.data())
    @settings(max_examples=8, deadline=None)
    def test_forcing_and_walked_prime_powers(self, n, data):
        # Forcing orders, and orders with two or three prime powers in
        # [n/20, n/6] (the ones the split may move into the walk), times
        # at most one smaller coprime prime power.
        k = data.draw(st.sampled_from(compute_forcing_set(n).members))
        assert p_exact(n, n - k) == _mobius_p(n, n - k)
        mid = [q for q in range(-(-n // 20), n // 6 + 1) if len(factorize(q).factors) == 1]
        qs = data.draw(
            st.lists(st.sampled_from(mid), min_size=2, max_size=3,
                     unique_by=lambda q: factorize(q).factors[0][0])
        )
        m = math.prod(qs)
        extra = data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9]))
        if math.gcd(extra, m) == 1:
            m *= extra
        assert p_exact(n, m) == _mobius_p(n, m)

    @pytest.mark.parametrize(
        "n, m", [(324, 323), (725, 724), (771, 770), (120, landau_g(120))]
    )
    def test_named_orders(self, n, m):
        assert p_exact(n, m) == _mobius_p(n, m)

    @pytest.mark.parametrize(
        "n, rows",
        [(0, [0]), (1, [0, 1]), (12, range(13)), (12, [12]), (12, [0]),
         (40, [39, 3, 17, 0]), (300, [300, 299, 150, 2, 0]), (300, range(0, 301, 7))],
    )
    def test_falling_products(self, n, rows):
        # Dense and sparse row sets, with and without r = 0 and r = n.
        assert exactdist._falling_products(n, rows) == {
            r: math.factorial(n) // math.factorial(r) for r in rows
        }

    @pytest.mark.parametrize("n, m", [(798, 797), (716, 715)])
    def test_falling_chain_rows(self, n, m):
        # e = 1 with one key row (797 is prime: its cycle leaves one label)
        # and with 55 key rows (715 = 5 * 11 * 13).
        assert p_exact(n, m) == _mobius_p(n, m)

    def test_budget_fires_before_any_work(self, monkeypatch):
        started = []
        monkeypatch.setattr(exactdist, "_divide_columns", lambda *a: started.append(a))
        monkeypatch.setattr(exactdist, "_trial_factors", lambda *a: started.append(a))
        with pytest.raises(BudgetExceededError, match=f"P_EXACT_MAX_N={P_EXACT_MAX_N}"):
            p_exact(P_EXACT_MAX_N + 1, 2)
        with pytest.raises(BudgetExceededError):
            p_exact(10**12, 10**12)
        assert started == []

    def test_budget_edge_is_served(self):
        # m = 1 has e = 1 alone: no column, one walk node, n!/n! = 1.
        assert p_exact(P_EXACT_MAX_N, 1) == Fraction(1, math.factorial(P_EXACT_MAX_N))

    def test_inexact_weight_raises(self, monkeypatch):
        # n!/r! + 1 for e = 1 leaves the 59-cycle's node, on one label left,
        # indivisible by its weight 59; the walk must refuse, not round.
        real = math.perm
        monkeypatch.setattr(exactdist.math, "perm", lambda n, k: real(n, k) + 1)
        with pytest.raises(RuntimeError, match="cycle weight 59"):
            p_exact(60, 59)


class TestSupport:
    def test_frozen_examples(self):
        assert support(1) == [1]
        assert support(2) == [1, 2]
        assert support(5) == [1, 2, 3, 4, 5, 6]

    def test_max_is_landau(self):
        for n in range(1, 41):
            assert max(support(n)) == landau_g(n)

    def test_matches_partition_lcms(self):
        for n in range(1, 26):
            lcms = {helpers.lcm_of(parts) for parts in helpers.partitions(n)}
            assert set(support(n)) == lcms

    def test_budget_error_names_size(self, monkeypatch):
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_SUPPORT", 10)
        with pytest.raises(BudgetExceededError) as exc:
            support(40)
        assert "10" in str(exc.value)


class TestFullPmf:
    def test_frozen_example(self):
        assert full_pmf(4).entries == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_normalization(self):
        for n in range(1, 26):
            pmf = full_pmf(n)
            assert sum(pmf.entries.values()) == math.factorial(n)

    def test_keys_equal_support(self):
        for n in range(1, 26):
            assert sorted(full_pmf(n).entries) == support(n)

    def test_matches_brute_force(self):
        for n in range(1, 8):
            assert full_pmf(n).entries == brute_force_pmf(n).entries

    def test_full_cycle_count_lower_bound(self):
        for n in range(1, 20):
            assert full_pmf(n).entries[landau_g(n)] >= 1
            assert full_pmf(n).entries.get(n, 0) >= math.factorial(n - 1)

    def test_big_cycle_forced_counts(self):
        # k in the forcing set with n-k > n/2: every (n-k)-cycle has order n-k
        for n in range(3, 26):
            for k in compute_forcing_set(n).members:
                if n - k > n // 2:
                    count = full_pmf(n).entries.get(n - k, 0)
                    assert count * (n - k) >= math.factorial(n)

    def test_budget_errors(self, monkeypatch):
        with pytest.raises(BudgetExceededError):
            full_pmf(101)
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_SUPPORT", 5)
        with pytest.raises(BudgetExceededError):
            full_pmf(30)


class TestSmallCycleKernel:
    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_partition_oracle(self, n):
        assert full_pmf(n).entries == helpers.pmf_by_partitions(n)
        assert mode(n).argmax == oracle_argmax(n)

    @pytest.mark.parametrize(
        "n",
        sorted({*ALL_SMALL, *(m for c in RULE_CHANGES if c <= ORACLE_MAX_N for m in (c - 1, c))}),
    )
    def test_rule_boundaries_match_partition_oracle(self, n):
        assert full_pmf(n).entries == helpers.pmf_by_partitions(n)
        assert mode(n).argmax == oracle_argmax(n)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_any_limit_matches_partition_oracle(self, n, t):
        assert counts_with_limit(n, t) == helpers.pmf_by_partitions(n)

    @pytest.mark.parametrize("n", [c for c in RULE_CHANGES if c > ORACLE_MAX_N])
    def test_rule_boundaries_beyond_oracle(self, n):
        # too many partitions for the oracle: the counts must not depend on
        # which side of the change the limit is taken from, and sum to n!
        before = counts_with_limit(n, exactdist._small_cycle_limit(n - 1))
        assert before == full_pmf(n).entries
        assert sum(before.values()) == math.factorial(n)

    def test_table_rows_match_partition_oracle(self):
        # Row r holds the partitions of r whose parts all divide lcm(1..t),
        # so lengths above t such as 6 (t = 3) or 10 and 12 (t = 5) count.
        for t in range(1, 8):
            big_l = numtheory.lcm_range(t)
            table = exactdist._small_cycle_table(12, t)
            for r in range(13):
                expected: dict[int, int] = {}
                for parts in helpers.partitions(r):
                    if any(big_l % j for j in parts):
                        continue
                    ell = helpers.lcm_of(parts)
                    expected[ell] = expected.get(ell, 0) + helpers.cycle_type_count(r, parts)
                assert table[r] == expected

    def test_inexact_division_raises(self, monkeypatch):
        # The table runs on the lattice DP's scaled rows and must refuse an
        # inexact row the same way.
        real = math.factorial
        monkeypatch.setattr(exactdist.math, "factorial", lambda k: real(k) + 1)
        with pytest.raises(RuntimeError, match="not divisible"):
            exactdist._small_cycle_table(5, 3)

    def test_negative_count_raises(self, monkeypatch):
        # Columns in the wrong order put L(12) where L(1) belongs, and on
        # four labels L(12) > L(6): E(2) = L(6) - L(12) < 0.
        real = exactdist._divide_columns
        monkeypatch.setattr(
            exactdist, "_divide_columns",
            lambda n, lengths, columns, last: list(real(n, lengths, columns, last))[::-1],
        )
        with pytest.raises(RuntimeError, match="negative count"):
            exactdist._small_cycle_table(6, 4)


# sha256 of repr(sorted(full_pmf(n).entries.items())), frozen from the
# kernel that merged every walk node with its table row one by one; n = 150
# from the kernel that split the cycles at length t, not by lcm(1..t).
FULL_PMF_DIGESTS = {
    72: "abe34dfcd7b4a34466dddf2a94ef99f74e2a5b0e97a912678b60d270281bbc9b",
    84: "35f5a8de7d90454993fc3fd79587e5e1a466c52ab74c14956fc91bb7ddc4e88b",
    90: "836cb2f850c5f1c9520561af8ec79e538db0edabf1b4d7ef421a0fe60d090c11",
    100: "aaa17b9b37da7f8efaf50137360ce798a054b20e5c88c54b3a093efb7acfbebf",
    120: "39d54a88a216d2f6f282156f2e740216d6d8080418de66510f9c42522d261d91",
    150: "f30414f58e087d8a450f2540ce2894178f8cd936fa342eaa9fe5f4e5cb0e3c8f",
}


# sha256 of the lines "{n} {first 16 hex of the digest above}\n" for
# n = 1..100, frozen from the kernel that walked the long cycles once per n.
FULL_PMF_1_TO_100_DIGEST = "eac8d544fcd9d236706cbf9ebfbccb55dd4f0259156b7b56bc0c74fc9d7411cf"


@pytest.fixture
def cold_slot():
    """Empty the table slot and the full-count cache around the test."""
    exactdist._TABLE_SLOT.clear()
    exactdist._full_counts.cache_clear()
    yield
    exactdist._TABLE_SLOT.clear()
    exactdist._full_counts.cache_clear()


@pytest.fixture
def table_builds(monkeypatch, cold_slot):
    """Record the (n, t) of every small- and long-cycle table built, from an empty slot."""
    builds: dict[str, list[tuple[int, int]]] = {"small": [], "long": []}
    for kind in builds:
        name = f"_{kind}_cycle_table"
        real = getattr(exactdist, name)

        def counted(n: int, t: int, kind=kind, real=real):
            builds[kind].append((n, t))
            return real(n, t)

        monkeypatch.setattr(exactdist, name, counted)
    return builds


class TestGroupedMergeAndTableSlot:
    @pytest.mark.parametrize("n", sorted(FULL_PMF_DIGESTS))
    def test_pinned_digests(self, monkeypatch, n):
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_N", max(FULL_PMF_DIGESTS))
        entries = full_pmf(n).entries
        digest = hashlib.sha256(repr(sorted(entries.items())).encode()).hexdigest()
        assert digest == FULL_PMF_DIGESTS[n]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_kept_tables_in_any_order(self, cold_slot, ascending):
        ns = range(1, 101) if ascending else range(100, 0, -1)
        lines = {}
        for n in ns:
            entries = full_pmf(n).entries
            lines[n] = f"{n} {hashlib.sha256(repr(sorted(entries.items())).encode()).hexdigest()[:16]}\n"
        text = "".join(lines[n] for n in range(1, 101))
        assert hashlib.sha256(text.encode()).hexdigest() == FULL_PMF_1_TO_100_DIGEST

    @pytest.mark.parametrize("order", [range(42, 48), range(47, 41, -1), [44, 47, 42, 45, 43, 46]])
    def test_one_build_per_band(self, table_builds, order):
        # t = 7 for n = 42..47: whichever n of the band comes first, both
        # tables are built up to 47 and serve the others.
        assert {exactdist._small_cycle_limit(n) for n in range(42, 48)} == {7}
        for n in order:
            assert sum(full_pmf(n).entries.values()) == math.factorial(n)
        assert table_builds == {"small": [(47, 7)], "long": [(47, 7)]}

    def test_new_band_drops_old_table(self, table_builds):
        full_pmf(47)
        old = exactdist._TABLE_SLOT[7]
        full_pmf(48)
        assert table_builds == {"small": [(47, 7), (53, 8)], "long": [(47, 7), (53, 8)]}
        assert list(exactdist._TABLE_SLOT) == [8]
        small, long = exactdist._TABLE_SLOT[8]
        assert len(small) == len(long) == 54
        assert small is not old[0] and long is not old[1]
        full_pmf(47)
        assert table_builds == {
            "small": [(47, 7), (53, 8), (47, 7)],
            "long": [(47, 7), (53, 8), (47, 7)],
        }
        assert list(exactdist._TABLE_SLOT) == [7]

    def test_forced_limit_keeps_its_width(self, table_builds):
        # A forced t is clipped to n and never widened by the next n's rule.
        assert counts_with_limit(30, 40) == full_pmf(30).entries
        assert table_builds["small"][0] == table_builds["long"][0] == (30, 30)
        assert counts_with_limit(30, 4) == full_pmf(30).entries
        assert table_builds["small"][-2] == table_builds["long"][-2] == (35, 4)

    def test_long_table_rows_match_partition_oracle(self):
        # Row s holds the partitions of s with no part dividing lcm(1..t).
        for t in range(0, 8):
            big_l = numtheory.lcm_range(t)
            table = exactdist._long_cycle_table(14, t)
            assert len(table) == 15
            for s in range(15):
                expected: dict[int, dict[int, int]] = {}
                for parts in helpers.partitions(s):
                    if any(big_l % j == 0 for j in parts):
                        continue
                    ell = helpers.lcm_of(parts)
                    g = math.gcd(ell, big_l)
                    by_h = expected.setdefault(g, {})
                    by_h[ell // g] = by_h.get(ell // g, 0) + helpers.cycle_type_count(s, parts)
                assert {g: dict(zip(hw[::2], hw[1::2])) for g, hw in table[s].items()} == expected

    def test_counts_off_n_factorial_raise(self, cold_slot, monkeypatch):
        real = exactdist._small_cycle_table

        def raised(n: int, t: int) -> list[dict[int, int]]:
            rows = real(n, t)
            rows[3][3] += 1
            return rows

        monkeypatch.setattr(exactdist, "_small_cycle_table", raised)
        with pytest.raises(RuntimeError, match=r"internal inconsistency at n=20: .*sum to n!"):
            full_pmf(20)

    def test_order_outside_support_raises(self, cold_slot, monkeypatch):
        # 23 is a prime above 20, so every product with it leaves support(20).
        real = exactdist._small_cycle_table

        def replaced(n: int, t: int) -> list[dict[int, int]]:
            rows = real(n, t)
            rows[3][23] = rows[3].pop(3)
            return rows

        monkeypatch.setattr(exactdist, "_small_cycle_table", replaced)
        with pytest.raises(
            RuntimeError, match=r"internal inconsistency at n=20: order \d+ is not in support"
        ):
            full_pmf(20)


class TestBruteForce:
    def test_frozen_example(self):
        assert brute_force_pmf(3).entries == {1: 1, 2: 3, 3: 2}

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_pmf(10)

    def test_matches_independent_enumeration(self):
        for n in range(1, 8):
            assert brute_force_pmf(n).entries == helpers.pmf_by_enumeration(n)

    def test_joint_counts(self):
        for n in range(1, 7):
            assert brute_force_joint(n) == helpers.joint_counts(n)

    def test_joint_marginals(self):
        for n in range(1, 8):
            joint = brute_force_joint(n)
            assert sum(joint.values()) == math.factorial(n)
            by_order: dict[int, int] = {}
            for (_, order), c in joint.items():
                by_order[order] = by_order.get(order, 0) + c
            assert by_order == brute_force_pmf(n).entries


class TestMode:
    def test_frozen_examples(self):
        assert mode(3).argmax == (2,)
        assert mode(3).max_prob == Fraction(1, 2)
        assert mode(4).argmax == (2,)
        assert mode(4).max_prob == Fraction(3, 8)
        assert mode(5).argmax == (4,)
        assert mode(5).max_prob == Fraction(1, 4)
        assert mode(6).argmax == (6,)
        assert mode(6).max_prob == Fraction(1, 3)
        assert mode(6).max_count == 240

    def test_tie_at_n2(self):
        res = mode(2)
        assert res.argmax == (1, 2)
        assert res.max_prob == Fraction(1, 2)

    def test_trivial_n1(self):
        res = mode(1)
        assert res.argmax == (1,)
        assert res.max_count == 1
        assert res.max_prob == 1

    def test_matches_full_pmf_argmax(self):
        for n in range(1, 31):
            res = mode(n)
            pmf = full_pmf(n).entries
            best = max(pmf.values())
            assert res.max_count == best
            assert res.argmax == tuple(sorted(m for m, c in pmf.items() if c == best))
            assert res.max_prob == Fraction(best, math.factorial(n))

    def test_mode_at_least_point_prob_at_n(self):
        for n in range(2, 31):
            assert mode(n).max_prob >= p_exact(n, n) >= Fraction(1, n)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            mode(101)


class TestCollisionNorm:
    def test_frozen_examples(self):
        assert collision_norm(1) == 1
        assert collision_norm(3) == Fraction(7, 18)

    def test_against_brute_force(self):
        for n in range(1, 8):
            pmf = helpers.pmf_by_enumeration(n)
            fact = math.factorial(n)
            expected = sum(Fraction(c, fact) ** 2 for c in pmf.values())
            assert collision_norm(n) == expected

    def test_lower_bound(self):
        for n in range(1, 31):
            assert collision_norm(n) >= Fraction(1, n**2)


class TestRestrictedCycles:
    def test_frozen_examples(self):
        assert count_restricted_cycles(5, 1, range(1, 6)) == 24
        assert count_restricted_cycles(4, 4, {1}) == 1
        assert count_restricted_cycles(4, 2, {2}) == 3

    def test_rejects_out_of_range_lengths(self):
        with pytest.raises(ValueError):
            count_restricted_cycles(4, 1, {0, 2})
        with pytest.raises(ValueError):
            count_restricted_cycles(4, 1, {5})

    def test_stirling_column(self):
        for n in range(1, 13):
            full = range(1, n + 1)
            total = 0
            for ell in range(0, n + 1):
                c = count_restricted_cycles(n, ell, full)
                assert c == helpers.stirling_first_unsigned(n, ell)
                total += c
            assert total == math.factorial(n)

    def test_against_partition_oracle(self):
        for n in range(1, 9):
            for allowed in ({1, 2}, {2, 3}, {1, 3, 4}, {2}, set(range(1, n + 1))):
                allowed_in = {j for j in allowed if j <= n}
                if not allowed_in:
                    continue
                oracle = helpers.restricted_joint_counts(n, frozenset(allowed_in))
                for ell in range(0, n + 1):
                    got = count_restricted_cycles(n, ell, allowed_in)
                    assert got == oracle.get(ell, 0)

    def test_sum_over_cycle_counts_matches_divides(self):
        for n in range(1, 9):
            for d in (2, 4, 6, 12):
                allowed = [j for j in range(1, n + 1) if d % j == 0]
                total = sum(count_restricted_cycles(n, ell, allowed) for ell in range(n + 1))
                assert total == count_lengths_divide(n, factorize(d))

    def test_more_cycles_than_labels(self):
        for n in range(0, 6):
            assert count_restricted_cycles(n, n + 1, range(1, n + 1)) == 0
            assert count_restricted_cycles(n, n + 3, {1} if n else ()) == 0


class TestTailMax:
    def test_empty_example(self):
        assert tail_max(6, Fraction(3, 10)) is None

    def test_positive_example(self):
        # 5^(11/10) ~ 5.87, so the tail starts at 6; p_5(6) = 20/120
        assert tail_max(5, Fraction(1, 10)) == (6, Fraction(1, 6))

    def test_threshold_comparison_is_exact(self):
        # at eps = 1/2 the cutoff is n^(3/2); for n=4 the tail starts at m=8
        assert tail_max(4, Fraction(1, 2)) is None  # support(4) tops out at 4

    def test_consistency_with_pmf(self):
        # Every m of the pmf tested in turn, as the benchmark's oracle does.
        grid = [Fraction(p, q) for p in (1, 2, 3, 7) for q in (1, 2, 3, 4, 10, 100, 1000)]
        for n, eps in itertools.product(range(1, 41), grid):
            p, q = eps.numerator, eps.denominator
            res = tail_max(n, eps)
            pmf = full_pmf(n).entries
            candidates = {m: c for m, c in pmf.items() if m**q >= n ** (p + q)}
            if not candidates:
                assert res is None
            else:
                m_star, prob = res
                best = max(candidates.values())
                assert candidates[m_star] == best
                assert prob == Fraction(best, math.factorial(n))
                assert m_star == min(m for m, c in candidates.items() if c == best)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            tail_max(5, Fraction(0))
        with pytest.raises(ValueError):
            tail_max(5, Fraction(-1, 2))

    def test_huge_cutoff_raises_before_any_work(self, monkeypatch):
        def no_work(n):
            raise AssertionError("full_pmf reached")

        monkeypatch.setattr(exactdist, "full_pmf", no_work)
        for eps in (Fraction(1, 10**7), Fraction(0.1), Fraction(10**9)):
            with pytest.raises(BudgetExceededError, match=f"TAIL_MAX_BITS={TAIL_MAX_BITS}"):
                tail_max(40, eps)

    def test_bound_is_read_at_call_time(self, monkeypatch):
        # n = 5 has 3 bits and eps = 1/10 gives p + q = 11: 33 bits.
        monkeypatch.setattr(exactdist, "TAIL_MAX_BITS", 33)
        assert tail_max(5, Fraction(1, 10)) == (6, Fraction(1, 6))
        monkeypatch.setattr(exactdist, "TAIL_MAX_BITS", 32)
        with pytest.raises(BudgetExceededError, match="33 bits"):
            tail_max(5, Fraction(1, 10))


class TestBudgetsReadAtCallTime:
    def test_raised_max_n_is_served(self, monkeypatch):
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_N", 101)
        assert sum(full_pmf(101).entries.values()) == math.factorial(101)
        result = mode(101)
        (m,) = result.argmax
        assert result.max_count == count_order_exactly_mobius(101, factorize(m))
        report = verify_mode_location(101)
        assert report.n == 101
        assert report.details["max_count"] == result.max_count

    def test_lowered_support_budget_beats_the_cache(self, monkeypatch):
        full_pmf(30)
        support(40)
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_SUPPORT", len(support(30)) - 1)
        with pytest.raises(BudgetExceededError):
            full_pmf(30)
        with pytest.raises(BudgetExceededError):
            support(40)
