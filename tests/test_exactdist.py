"""Tests for the exact order-distribution engine.

Frozen expected values were computed with the independent oracles in
helpers.py (exhaustive S_n enumeration and partition scans) before the
engine was implemented; the oracles never share code with the engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from permorder import exactdist, numtheory
from permorder.exactdist import (
    DEFAULT_MAX_N,
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
from permorder.numtheory import DivisorLattice, compute_forcing_set, factorize, landau_g

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

    def test_budget_error_names_size(self):
        with pytest.raises(BudgetExceededError) as exc:
            support(40, max_support=10)
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

    def test_budget_errors(self):
        with pytest.raises(BudgetExceededError):
            full_pmf(101)
        with pytest.raises(BudgetExceededError):
            full_pmf(30, max_support=5)


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
        for t in range(1, 8):
            table = exactdist._small_cycle_table(12, t)
            for r in range(13):
                expected: dict[int, int] = {}
                for parts in helpers.partitions(r, t):
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
            lambda n, divisors, cap: list(real(n, divisors, cap))[::-1],
        )
        with pytest.raises(RuntimeError, match="negative count"):
            exactdist._small_cycle_table(6, 4)


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
        for n in range(2, 21):
            eps = Fraction(1, 4)
            res = tail_max(n, eps)
            pmf = full_pmf(n).entries
            candidates = {m: c for m, c in pmf.items() if m**4 >= n**5}
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
