"""Tests for the descending-chain cycle-type sampler and its estimators.

Reference probabilities come from the exhaustive oracles in helpers.py or
from hand-computed exact laws of tiny cases; all randomized checks use
fixed seeds and 4-standard-error windows, so they are deterministic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import helpers
from permorder.sampler import (
    ChiSquareResult,
    CycleType,
    EstimateRecord,
    JointPredicate,
    chi_square_vs_exact,
    estimate_collision,
    estimate_p,
    joint_frequency,
    sample_cycle_type,
)

SEED = 20240817


def four_sigma(p: float, trials: int) -> float:
    return 4 * math.sqrt(p * (1 - p) / trials)


class TestCycleType:
    def test_lengths_are_canonicalized(self):
        ct = CycleType(n=6, lengths=(3, 1, 2))
        assert ct.lengths == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleType(n=5, lengths=(1, 2))  # sums to 3
        with pytest.raises(ValueError):
            CycleType(n=2, lengths=(0, 2))
        with pytest.raises(ValueError):
            CycleType(n=1, lengths=())


class TestSampleCycleType:
    def test_n1_is_forced(self):
        rng = random.Random(SEED)
        for _ in range(50):
            assert sample_cycle_type(1, rng).lengths == (1,)

    def test_lengths_sum_to_n(self):
        rng = random.Random(SEED)
        for _ in range(500):
            ct = sample_cycle_type(10, rng)
            assert sum(ct.lengths) == 10
            assert all(j >= 1 for j in ct.lengths)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            sample_cycle_type(0, random.Random(SEED))

    def test_chain_law_n2(self):
        rng = random.Random(SEED)
        trials = 100_000
        hits = sum(sample_cycle_type(2, rng).lengths == (2,) for _ in range(trials))
        assert abs(hits / trials - 0.5) < four_sigma(0.5, trials)

    def test_chain_law_n3(self):
        # exact law: {3} w.p. 1/3, {1,2} w.p. 1/2, {1,1,1} w.p. 1/6
        rng = random.Random(SEED)
        trials = 100_000
        freq: dict[tuple[int, ...], int] = {}
        for _ in range(trials):
            ct = sample_cycle_type(3, rng)
            freq[ct.lengths] = freq.get(ct.lengths, 0) + 1
        law = {(3,): 1 / 3, (1, 2): 1 / 2, (1, 1, 1): 1 / 6}
        assert set(freq) == set(law)
        for lengths, p in law.items():
            assert abs(freq[lengths] / trials - p) < four_sigma(p, trials)


class TestEstimateP:
    def test_matches_exact_small_n(self):
        trials = 100_000
        rec = estimate_p(3, 2, trials=trials, seed=SEED)
        assert rec.trials == trials
        assert rec.estimate == rec.hits / trials
        assert abs(rec.estimate - 0.5) < four_sigma(0.5, trials)

    def test_impossible_order_never_hits(self):
        rec = estimate_p(5, 7, trials=2_000, seed=SEED)
        assert rec.hits == 0
        assert rec.estimate == 0.0
        assert rec.std_err == 0.0

    def test_deterministic(self):
        a = estimate_p(6, 6, trials=30_000, seed=SEED)
        b = estimate_p(6, 6, trials=30_000, seed=SEED)
        assert a == b

    def test_record_fields(self):
        rec = estimate_p(4, 4, trials=10_000, seed=7)
        assert rec.n == 4
        assert rec.seed == 7
        assert rec.target == "p(n=4, m=4)"
        p = rec.estimate
        assert rec.std_err == pytest.approx(math.sqrt(p * (1 - p) / rec.trials))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_p(0, 1, trials=10, seed=1)
        with pytest.raises(ValueError):
            estimate_p(3, 2, trials=0, seed=1)


class TestEstimateCollision:
    def test_degenerate_n1(self):
        rec = estimate_collision(1, trials=100, seed=SEED)
        assert rec.hits == 100
        assert rec.estimate == 1.0

    def test_matches_exact_n2(self):
        trials = 100_000
        rec = estimate_collision(2, trials=trials, seed=SEED)
        assert abs(rec.estimate - 0.5) < four_sigma(0.5, trials)

    def test_matches_exact_n3(self):
        trials = 100_000
        p = 7 / 18
        rec = estimate_collision(3, trials=trials, seed=SEED)
        assert abs(rec.estimate - p) < four_sigma(p, trials)


class TestJointFrequency:
    def test_restricted_matches_brute_force(self):
        # two cycles, both lengths 2, in S_4: exactly 3/24
        trials = 100_000
        pred = JointPredicate(kind="restricted", allowed=frozenset({2}))
        rec = joint_frequency(4, 2, pred, trials=trials, seed=SEED)
        assert abs(rec.estimate - 1 / 8) < four_sigma(1 / 8, trials)

    def test_single_cycle_frequency(self):
        # m=1 divides every order, so this is just P(one cycle) = 1/n
        trials = 100_000
        pred = JointPredicate(kind="divides_order", m=1)
        rec = joint_frequency(5, 1, pred, trials=trials, seed=SEED)
        assert abs(rec.estimate - 0.2) < four_sigma(0.2, trials)

    def test_order_divides_case(self):
        # in S_4 a single cycle is a 4-cycle, and 4 divides 4: P = 1/4
        trials = 100_000
        pred = JointPredicate(kind="order_divides", m=4)
        rec = joint_frequency(4, 1, pred, trials=trials, seed=SEED)
        assert abs(rec.estimate - 0.25) < four_sigma(0.25, trials)

    def test_joint_against_enumeration(self):
        # cycles=2 and order divisible by 3 in S_5, oracle by enumeration
        trials = 100_000
        joint = helpers.joint_counts(5)
        p = sum(c for (ell, m), c in joint.items() if ell == 2 and m % 3 == 0) / 120
        pred = JointPredicate(kind="divides_order", m=3)
        rec = joint_frequency(5, 2, pred, trials=trials, seed=SEED)
        assert abs(rec.estimate - p) < four_sigma(p, trials)

    def test_predicate_validation(self):
        with pytest.raises(ValueError):
            JointPredicate(kind="nonsense", m=3)
        with pytest.raises(ValueError):
            JointPredicate(kind="restricted")  # needs allowed
        with pytest.raises(ValueError):
            JointPredicate(kind="divides_order")  # needs m
        with pytest.raises(ValueError):
            JointPredicate(kind="order_divides", m=0)


class TestWorkerPooling:
    def test_estimate_p_worker_invariance(self):
        # 25k trials span three chunks; hit counts must match exactly
        solo = estimate_p(4, 4, trials=25_000, seed=SEED, workers=1)
        pooled = estimate_p(4, 4, trials=25_000, seed=SEED, workers=3)
        assert solo == pooled

    def test_collision_worker_invariance(self):
        solo = estimate_collision(3, trials=25_000, seed=SEED, workers=1)
        pooled = estimate_collision(3, trials=25_000, seed=SEED, workers=2)
        assert solo == pooled

    def test_chi_square_worker_invariance(self):
        solo = chi_square_vs_exact(3, trials=30_000, seed=SEED, workers=1)
        pooled = chi_square_vs_exact(3, trials=30_000, seed=SEED, workers=2)
        assert solo == pooled


class TestChiSquare:
    def test_degenerate_n1(self):
        res = chi_square_vs_exact(1, trials=10, seed=SEED)
        assert res.dof == 0
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.passed

    def test_n3_passes(self):
        res = chi_square_vs_exact(3, trials=120_000, seed=SEED)
        assert res.dof == 2  # support {1, 2, 3}
        assert res.passed
        assert res.p_value >= 1e-3

    def test_n5_passes(self):
        res = chi_square_vs_exact(5, trials=120_000, seed=SEED)
        assert res.dof == 5  # support {1,...,6}
        assert res.passed

    def test_trials_floor_enforced(self):
        # rarest bin is the identity (probability 1/n!): need trials >= 5*n!
        with pytest.raises(ValueError):
            chi_square_vs_exact(5, trials=100, seed=SEED)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            chi_square_vs_exact(9, trials=10**7, seed=SEED)

    def test_result_is_reproducible(self):
        a = chi_square_vs_exact(4, trials=10_000, seed=SEED)
        b = chi_square_vs_exact(4, trials=10_000, seed=SEED)
        assert a == b
        assert isinstance(a, ChiSquareResult)


class TestEstimateRecord:
    def test_consistency(self):
        rec = EstimateRecord(
            target="p(n=3, m=2)",
            n=3,
            trials=1000,
            hits=500,
            estimate=0.5,
            std_err=math.sqrt(0.25 / 1000),
            seed=1,
        )
        assert rec.estimate == rec.hits / rec.trials
