"""Tests for predictions, explicit bounds, and claim-verification routines.

Frozen expected values were computed independently (hand substitution in
the closed forms, or the enumeration oracles in helpers.py) before the
module was implemented.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import helpers
from permorder import exactdist
from permorder.asymptotics import (
    CLAIM_FINAL_INEQUALITY,
    CLAIM_MODE_LOCATION,
    CLAIM_NEAR_MAX_FORM,
    RefinedGap,
    VerificationReport,
    divisor_count_bound,
    divisor_sum_bound,
    fit_log_slope,
    predicted_point_prob,
    prediction_residual,
    prime_assignment_bound,
    refined_gap,
    restricted_cycle_bound,
    second_order_term,
    verify_gap_inequality,
    verify_mode_location,
    verify_near_max_form,
)
from permorder.exactdist import count_order_exactly_mobius, count_restricted_cycles
from permorder.numtheory import (
    DivisorLattice,
    compute_forcing_set,
    factorize,
    lcm_range,
)


class TestSecondOrderTerm:
    def test_zero_cases(self):
        assert second_order_term(5, 0) == 0
        assert second_order_term(100, 0) == 0
        assert second_order_term(12, 1) == 0
        assert second_order_term(10, 2) == 0  # 4 divides 8
        assert second_order_term(6, 2) == 0  # 4 divides 4
        assert second_order_term(20, 4) == 0  # 8 divides 16

    def test_nonzero_cases(self):
        assert second_order_term(12, 2) == Fraction(1, 100)
        assert second_order_term(12, 3) == Fraction(1, 81)
        assert second_order_term(20, 5) == Fraction(1, 450)
        assert second_order_term(11, 4) == Fraction(1, 98)
        assert second_order_term(19, 8) == Fraction(1, 484)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            second_order_term(5, 5)
        with pytest.raises(ValueError):
            second_order_term(5, -1)

    def test_bounded_by_inverse_square(self):
        # for k >= 2 the term never exceeds 1/(n-k)^2 (equality at k in {2,3})
        for n in range(3, 120):
            for k in range(2, n):
                assert second_order_term(n, k) <= Fraction(1, (n - k) ** 2)

    def test_power_of_two_split_is_exact(self):
        # the dyadic exponent steps exactly at powers of two: k=7 and k=8
        # sit on opposite sides of the split
        assert second_order_term(100, 7) == Fraction(2, 4 * 93**2)
        assert second_order_term(100, 8) == Fraction(2, 8 * 92**2)  # 92 % 16 != 0
        assert second_order_term(104, 8) == 0  # 96 % 16 == 0


class TestPredictedPointProb:
    def test_frozen_examples(self):
        assert predicted_point_prob(7, 0) == Fraction(1, 7)
        assert predicted_point_prob(12, 2) == Fraction(11, 100)
        assert predicted_point_prob(10, 2) == Fraction(1, 8)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            predicted_point_prob(5, 3)  # lcm(1..3)=6 does not divide 2
        with pytest.raises(ValueError):
            predicted_point_prob(12, 4)  # lcm(1..4)=12 does not divide 8


class TestPredictionResidual:
    def test_frozen_zero_cases(self):
        assert prediction_residual(3, 1) == 0
        assert prediction_residual(4, 0) == 0
        assert prediction_residual(6, 2) == 0

    def test_prime_n_k0_is_exact(self):
        for n in (7, 11, 13):
            assert prediction_residual(n, 0) == 0

    def test_against_partition_oracle(self):
        for n, k in ((12, 2), (10, 2), (9, 3), (8, 2)):
            members = compute_forcing_set(n).members
            if k not in members:
                continue
            exact = helpers.exact_prob(helpers.pmf_by_partitions(n).get(n - k, 0), n)
            expected = abs(exact - predicted_point_prob(n, k))
            assert prediction_residual(n, k) == expected


class TestBounds:
    def test_restricted_cycle_bound_frozen(self):
        assert restricted_cycle_bound(5, 1, {1, 2, 3}) == Fraction(1, 5)
        assert restricted_cycle_bound(4, 2, {2}) == Fraction(1, 8)
        assert restricted_cycle_bound(5, 2, range(1, 6)) == Fraction(137, 300)

    def test_restricted_cycle_bound_tight_case(self):
        # P(two cycles, both of length 2) in S_4 is 3/24 = 1/8: bound attained
        assert Fraction(count_restricted_cycles(4, 2, {2}), 24) == restricted_cycle_bound(
            4, 2, {2}
        )

    def test_restricted_cycle_bound_rejects(self):
        with pytest.raises(ValueError):
            restricted_cycle_bound(5, 0, {1})
        with pytest.raises(ValueError):
            restricted_cycle_bound(5, 1, {6})

    def test_divisor_sum_bound_frozen(self):
        assert divisor_sum_bound(9, 1, factorize(12)) == Fraction(1, 9)
        assert divisor_sum_bound(6, 2, factorize(6)) == Fraction(1, 3)
        assert divisor_sum_bound(6, 2, factorize(4)) == Fraction(7, 24)

    def test_divisor_sum_equals_restricted_when_divisors_fit(self):
        # sum of 1/d over divisors of m equals sigma(m)/m, so the two bounds
        # agree whenever every divisor of m is an allowed cycle length
        for n, m in ((6, 6), (12, 12), (10, 9), (8, 8)):
            f = factorize(m)
            allowed = list(DivisorLattice(f).divisors)
            assert max(allowed) <= n
            for ell in (1, 2, 3):
                assert divisor_sum_bound(n, ell, f) == restricted_cycle_bound(
                    n, ell, allowed
                )

    def test_divisor_sum_weaker_when_divisors_clip(self):
        # m = 12 has divisor 12 > n = 10: the clipped restricted bound is smaller
        f = factorize(12)
        allowed = [d for d in DivisorLattice(f).divisors if d <= 10]
        assert restricted_cycle_bound(10, 2, allowed) <= divisor_sum_bound(10, 2, f)

    def test_prime_assignment_bound_frozen(self):
        assert prime_assignment_bound(1, factorize(1)) == 1
        assert prime_assignment_bound(2, factorize(6)) == Fraction(2, 3)
        assert prime_assignment_bound(3, factorize(12)) == Fraction(3, 4)

    def test_divisor_count_bound_frozen(self):
        assert divisor_count_bound(7, factorize(1)) == Fraction(1, 7)
        assert divisor_count_bound(10, factorize(12)) == Fraction(3, 5)
        assert divisor_count_bound(4, factorize(4)) == Fraction(3, 4)

    def test_divisor_count_bound_dominates_exact(self):
        # P(ord divides m) <= tau(m)/n, checked by enumeration
        for n in range(1, 7):
            pmf = helpers.pmf_by_enumeration(n)
            fact = math.factorial(n)
            for m in (1, 2, 3, 4, 6, 8, 12):
                exact = Fraction(
                    sum(c for order, c in pmf.items() if m % order == 0), fact
                )
                assert exact <= divisor_count_bound(n, factorize(m))

    def test_restricted_bound_dominates_exact(self):
        for n in range(2, 7):
            fact = math.factorial(n)
            for allowed in ({1, 2}, {2, 3}, {2}, set(range(1, n + 1))):
                allowed_in = {j for j in allowed if j <= n}
                if not allowed_in:
                    continue
                for ell in range(1, n + 1):
                    exact = Fraction(count_restricted_cycles(n, ell, allowed_in), fact)
                    assert exact <= restricted_cycle_bound(n, ell, allowed_in)

    def test_prime_assignment_bound_dominates_exact(self):
        # P(exactly ell cycles and order m) <= ell^omega(m)/m, by enumeration
        for n in range(1, 7):
            joint = helpers.joint_counts(n)
            fact = math.factorial(n)
            for (ell, m), c in joint.items():
                if ell >= 1:
                    assert Fraction(c, fact) <= prime_assignment_bound(ell, factorize(m))


class TestVerificationReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            VerificationReport(
                n=5, claim=CLAIM_NEAR_MAX_FORM, holds=True, witnesses=(2,)
            )
        with pytest.raises(ValueError):
            VerificationReport(
                n=5, claim=CLAIM_NEAR_MAX_FORM, holds=False, witnesses=()
            )

    def test_rejects_unknown_claim(self):
        with pytest.raises(ValueError):
            VerificationReport(n=5, claim="something_else", holds=True, witnesses=())


class TestVerifyNearMaxForm:
    def test_trivial_n1(self):
        report = verify_near_max_form(1)
        assert report.holds
        assert report.witnesses == ()

    def test_n5_fails_via_m2(self):
        # p_5(2) = 25/120 >= 1/5 qualifies, but 5-2 = 3 is not a forcing k
        report = verify_near_max_form(5)
        assert not report.holds
        assert report.witnesses == (2,)

    def test_n6_holds(self):
        report = verify_near_max_form(6)
        assert report.holds
        assert report.details["qualifying"] == (4, 5, 6)

    def test_matches_direct_recomputation(self):
        for n in range(1, 13):
            report = verify_near_max_form(n)
            assert report.claim == CLAIM_NEAR_MAX_FORM
            pmf = helpers.pmf_by_partitions(n)
            fact = math.factorial(n)
            qualifying = sorted(m for m, c in pmf.items() if n * c >= fact)
            members = set(helpers.forcing_members_by_definition(n))
            expected_witnesses = tuple(m for m in qualifying if n - m not in members)
            assert report.witnesses == expected_witnesses
            assert report.holds == (not expected_witnesses)
            assert report.details["qualifying"] == tuple(qualifying)


class TestVerifyModeLocation:
    def test_frozen_small_cases(self):
        assert verify_mode_location(3).holds
        assert verify_mode_location(4).holds
        assert verify_mode_location(5).holds
        report6 = verify_mode_location(6)
        assert not report6.holds
        assert report6.witnesses == (6,)

    def test_tie_counts_as_failure(self):
        report = verify_mode_location(2)
        assert not report.holds
        assert report.witnesses == (1, 2)

    def test_expected_location_recorded(self):
        for n in (3, 5, 6, 10):
            report = verify_mode_location(n)
            expected = n - compute_forcing_set(n).max_k
            assert report.claim == CLAIM_MODE_LOCATION
            assert report.details["expected"] == expected

    def test_frontier_61_to_120(self, monkeypatch):
        # Past the acceptance scan's 2..60 the counterexamples are these,
        # with their argmax; every other n up to 120 holds.  Each count is
        # checked against the inclusion-exclusion route.
        counterexamples = {67: (60,), 72: (72,), 84: (84,), 90: (90,), 120: (120,)}
        monkeypatch.setattr(exactdist, "DEFAULT_MAX_N", 120)
        for n in range(61, 121):
            report = verify_mode_location(n)
            expected = report.details["expected"]
            expected_count = count_order_exactly_mobius(n, factorize(expected))
            if n in counterexamples:
                assert not report.holds
                assert report.witnesses == counterexamples[n]
                (m,) = counterexamples[n]
                assert report.details["max_count"] == count_order_exactly_mobius(n, factorize(m))
                assert expected_count < report.details["max_count"]
            else:
                assert report.holds
                assert report.details["max_count"] == expected_count


class TestVerifyGapInequality:
    def test_frozen_n6(self):
        report = verify_gap_inequality(6)
        assert report.holds
        # k0 = 2, k = 0: 2/(4*6) + 0 - 0 = 1/12 >= 1/36
        entry = next(d for d in report.details["checks"] if d["k"] == 0)
        assert entry["lhs"] == Fraction(1, 12)
        assert entry["rhs"] == Fraction(1, 36)

    def test_divisibility_always_recorded(self):
        for n in range(2, 60):
            report = verify_gap_inequality(n)
            assert report.claim == CLAIM_FINAL_INEQUALITY
            assert report.holds
            k0 = compute_forcing_set(n).max_k
            for entry in report.details["checks"]:
                assert entry["divisible"] == ((k0 - entry["k"]) % lcm_range(entry["k"]) == 0)
                assert entry["divisible"]  # the chain's divisibility argument

    def test_holds_for_wide_range(self):
        for n in range(2, 2001):
            assert verify_gap_inequality(n).holds

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            verify_gap_inequality(1)


class TestRefinedGap:
    def test_frozen_examples(self):
        g2 = refined_gap(2)
        assert g2.exact_num == 0
        assert g2.ratio == 0.0
        g4 = refined_gap(4)
        assert g4.exact_num == 2
        assert g4.ratio == pytest.approx(2 / math.log(4))

    def test_against_partition_oracle(self):
        for n in (9, 16):
            pmf = helpers.pmf_by_partitions(n)
            best = max(pmf.values())
            expected = (helpers.exact_prob(best, n) - Fraction(1, n)) * n * n
            g = refined_gap(n)
            assert g.exact_num == expected
            assert g.exact_num > 0
            assert g.ratio == pytest.approx(float(expected) / math.log(n))

    def test_nonnegative(self):
        for n in range(2, 21):
            assert refined_gap(n).exact_num >= 0

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            refined_gap(1)


class TestFitLogSlope:
    def test_exact_power_law(self):
        pts = [(n, Fraction(1, n**3)) for n in range(2, 40)]
        assert fit_log_slope(pts) == pytest.approx(-3.0, abs=1e-9)

    def test_scaled_power_law(self):
        pts = [(n, Fraction(7, 2) * Fraction(1, n**2)) for n in range(3, 50)]
        assert fit_log_slope(pts) == pytest.approx(-2.0, abs=1e-9)

    def test_handles_huge_rationals(self):
        # numerators/denominators far beyond float range must not overflow
        pts = [(n, Fraction(10**300, 10**600) * Fraction(1, n**4)) for n in (2, 4, 8, 16)]
        assert fit_log_slope(pts) == pytest.approx(-4.0, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_log_slope([(2, Fraction(1, 4))])
        with pytest.raises(ValueError):
            fit_log_slope([(2, Fraction(0)), (3, Fraction(1, 9))])
