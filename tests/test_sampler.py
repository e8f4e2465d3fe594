"""Tests for the descending-chain cycle-type sampler and its estimators.

Reference probabilities come from the exhaustive oracles in helpers.py,
from hand-computed exact laws of tiny cases, or from `p_exact` at n in the
hundreds; all randomized checks use fixed seeds and 4-standard-error
windows (6 against `p_exact`, the benchmark oracle's window), so they are
deterministic.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from permorder import sampler
from permorder.exactdist import p_exact
from permorder.sampler import (
    ChiSquareResult,
    CycleType,
    EstimateRecord,
    chi_square_vs_exact,
    estimate_collision,
    estimate_p,
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


class TestSeedRange:
    """Chunk seeds are taken mod 2**64, so a seed outside [0, 2**64) is refused."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejected_everywhere(self, seed):
        with pytest.raises(ValueError, match="seed"):
            estimate_p(4, 4, trials=10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            estimate_collision(4, trials=10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            chi_square_vs_exact(3, trials=1000, seed=seed)


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


def _stream_sizes() -> list[int]:
    sizes = {1}
    for k in range(1, 11):
        sizes.update((2**k - 1, 2**k, 2**k + 1))
    return sorted(sizes)


def pin_ids(rows) -> list[str]:
    """Test ids from each row without its last, pinned value, so that a new
    stream edits the pins but renames no test."""
    return ["-".join(map(str, row[:-1])) for row in rows]


# (n, m, trials) that the block reader serves: first draws of 8 and 9 bits
# and of 31 and 32 bits; 4096-word blocks whose ends fall inside a chunk
# (and chunks of 10 001 and 25 001 trials); m = 1, an m no permutation of
# [700] has (701 is prime), and the divisor-rich m = 720720.
BLOCK_ROWS = [
    (255, 254, 4_000), (256, 251, 4_000), (257, 257, 4_000),
    (2**31 - 1, 2**30, 2_000), (2**31 + 1, 2**31, 3_000), (2**32 - 1, 2**31, 3_000),
    (800, 797, 12_000), (456, 454, 25_001), (1000, 1000, 10_001),
    (800, 1, 3_000), (700, 2 * 701, 3_000), (2**20, 720720, 16_000),
]

P_PINS = [(50, 50, 1, 406), (10, 12, 3, 3322), (800, 797, 12345, 5),
          (600, 600, 2**64 - 1, 46)]
COLLISION_PINS = [(10, 1, 2135), (30, 5, 333), (100, 99, 26)]


class TestGoldenStream:
    """The sampler's draws are the plain ``randrange`` chain, bit for bit."""

    @pytest.mark.parametrize("n", _stream_sizes())
    def test_sample_lengths_match_randrange_chain(self, n):
        for seed in range(40):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert sampler._sample_lengths(n, ours) == (
                    helpers.cycle_lengths_by_randrange(n, ref)
                )
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", _stream_sizes())
    def test_sample_cycle_type_matches_randrange_chain(self, n):
        for seed in (0, 1, SEED, 2**64 - 1):
            ours, ref = random.Random(seed), random.Random(seed)
            ct = sample_cycle_type(n, ours)
            assert ct.lengths == tuple(sorted(helpers.cycle_lengths_by_randrange(n, ref)))
            assert ours.getstate() == ref.getstate()

    # Hit counts of stream 2, taken from helpers.order_hits_by_randrange and
    # helpers.collision_hits_by_randrange; a change to the draw loop that
    # alters any seeded stream changes them.
    @pytest.mark.parametrize("n, m, seed, hits", P_PINS, ids=pin_ids(P_PINS))
    def test_estimate_p_hits_pinned(self, n, m, seed, hits):
        trials = 30_000 if n == 10 else 20_000
        assert estimate_p(n, m, trials=trials, seed=seed).hits == hits

    # estimate_p ends a trial at the first length that does not divide m,
    # and otherwise draws the chain to its end and compares the lcm of its
    # lengths with m, as the reference does.  Every length up to 10 divides
    # 2520 and up to 12 divides 27720, so those chains never stop early;
    # m = 1 goes on only while every length is 1; 5000 draws from far above
    # the first draw's bit length.  BLOCK_ROWS take the block reader; the
    # 33-bit first draws of n = 2**32 + 1 take the per-draw loop.
    @pytest.mark.parametrize(
        "n, m, trials",
        [(1, 1, 2_000), (3, 1, 4_000), (2, 1, 4_000), (50, 50, 4_000),
         (10, 12, 4_000), (20, 23, 2_000), (800, 1024, 2_000), (31, 30, 4_000),
         (33, 32, 4_000), (1023, 1020, 3_000), (1025, 1024, 3_000), (4, 4, 25_001),
         (10, 2520, 4_000), (12, 27720, 4_000), (5000, 5000, 1_000),
         (2**32 + 1, 2**32, 2_000), *BLOCK_ROWS],
    )
    def test_estimate_p_hits_match_full_lcm_test(self, n, m, trials):
        plan = sampler._chunk_plan(trials, SEED)
        assert estimate_p(n, m, trials=trials, seed=SEED).hits == (
            helpers.order_hits_by_randrange(n, m, plan)
        )

    @pytest.mark.parametrize(
        "n, trials",
        [(1, 2_000), (2, 4_000), (3, 4_000), (10, 4_000), (12, 25_001),
         (31, 4_000), (100, 3_000)],
    )
    def test_estimate_collision_hits_match_reference(self, n, trials):
        plan = sampler._chunk_plan(trials, SEED)
        assert estimate_collision(n, trials=trials, seed=SEED).hits == (
            helpers.collision_hits_by_randrange(n, plan)
        )

    @pytest.mark.parametrize("n, seed, hits", COLLISION_PINS, ids=pin_ids(COLLISION_PINS))
    def test_estimate_collision_hits_pinned(self, n, seed, hits):
        assert estimate_collision(n, trials=20_000, seed=seed).hits == hits

    def test_stream_version(self):
        assert sampler.STREAM_VERSION == 2
        assert estimate_p(4, 4, trials=100, seed=SEED).stream == 2
        assert estimate_collision(4, trials=100, seed=SEED).stream == 2


def block_words(buf: bytes) -> list[int]:
    return [int.from_bytes(buf[i : i + 4], "little") for i in range(0, len(buf), 4)]


TOP_BYTE_PAIRS = [(64, 61), (97, 97), (100, 97), (255, 254), (257, 257), (800, 797),
                  (2049, 2048), (4095, 4094)]
# More than 1/32 of first draws continue; 33-bit first draws; too few
# trials to pay for the table; a prime cofactor beyond the trial
# divisions; 128 open bytes.
PER_DRAW_ROWS = [
    (10, 10, 10**6), (100, 100, 10**6), (600, 600, 10**6), (2**32, 2**32, 10**6),
    (800, 797, 100), (1000, 2**61 - 1, 10**6),
    (2**20, 2**10 * 3**5 * 5**3 * 7**2 * 11 * 13, 10**6),
]


def first_draw_rows() -> list[tuple[int, int, int]]:
    """Every (n, m) the `points` benchmark workload can sample, at its 10 000
    trials (m in [200, 800), n = m + k for each k with lcm(1..k) | m), then
    the rows of `TestBlockReader`."""
    rows = []
    for m in range(200, 800):
        k, ell = 0, 1
        while m % ell == 0:
            rows.append((m + k, m, 10_000))
            k += 1
            ell = math.lcm(ell, k)
    rows += [(n, m, 10**6) for n, m in TOP_BYTE_PAIRS]
    return rows + BLOCK_ROWS + PER_DRAW_ROWS


# sha256 over `first_draw_rows` of each class table, None included,
# recorded before the sampler's set-up took numtheory's trial division.
FIRST_DRAW_SHA256 = "74f53a60be775156ff8e57fe79ab61fafa4d3cf4baeb77e44d994f8c7d94cb48"


class TestBlockReader:
    """The block reader reads the per-draw stream, word for word."""

    def test_block_words_are_successive_draws(self):
        table = bytes(range(256))
        for seed in (0, 1, SEED, 2**64 - 1):
            ours, ref = random.Random(seed), random.Random(seed)
            buf, cls = sampler._read_block(ours.getrandbits, 100, table)
            assert block_words(buf) == [ref.getrandbits(32) for _ in range(100)]
            assert cls == buf[3::4]
            buf, _ = sampler._read_block(ours.getrandbits, 32, table)
            assert [w >> (32 - k) for k, w in enumerate(block_words(buf), 1)] == (
                [ref.getrandbits(k) for k in range(1, 33)]
            )
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n, m", TOP_BYTE_PAIRS)
    def test_class_of_every_top_byte(self, n, m):
        # Open exactly where some word of that top byte is a first draw
        # that continues, or where the byte gives both x < n and x >= n.
        table = sampler._first_draw_classes(n, m, 10**6)
        shift = 32 - n.bit_length()
        for b in range(256):
            xs = range((b << 24) >> shift, (((b + 1) << 24) - 1 >> shift) + 1)
            if all(x >= n for x in xs):
                want = sampler._REJECT
            elif all(x < n and m % (n - x) for x in xs):
                want = sampler._MISS
            else:
                want = sampler._OPEN
            assert table[b : b + 1] == want, b

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_hits_match_reference_at_any_block_size(self, monkeypatch, block):
        # Small blocks put block ends inside chains, and between an open
        # word and the chain it starts.
        monkeypatch.setattr(sampler, "_BLOCK", block)
        for n, m in [(800, 797), (1000, 1000), (456, 454)]:
            plan = sampler._chunk_plan(3_000, SEED)
            assert estimate_p(n, m, trials=3_000, seed=SEED).hits == (
                helpers.order_hits_by_randrange(n, m, plan)
            )

    @pytest.mark.parametrize("n, m, trials", BLOCK_ROWS)
    def test_block_rows_take_the_block_reader(self, n, m, trials):
        assert sampler._first_draw_classes(n, m, trials) is not None

    @pytest.mark.parametrize("n, m, trials", PER_DRAW_ROWS)
    def test_per_draw_loop_where_blocks_give_no_gain(self, n, m, trials):
        assert sampler._first_draw_classes(n, m, trials) is None

    def test_first_draw_tables_are_pinned(self):
        digest = hashlib.sha256()
        for n, m, trials in first_draw_rows():
            table = sampler._first_draw_classes(n, m, trials)
            digest.update(f"{n} {m} {trials} {'None' if table is None else table.hex()}\n".encode())
        assert digest.hexdigest() == FIRST_DRAW_SHA256

    @given(
        n=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        trials=st.integers(min_value=1, max_value=12_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_match_reference(self, n, seed, trials, data):
        m = data.draw(st.one_of(
            st.integers(min_value=max(1, n - 12), max_value=n),
            st.integers(min_value=1, max_value=4 * n),
            st.sampled_from([1, 5040, 720720]),
        ))
        plan = sampler._chunk_plan(trials, seed)
        assert estimate_p(n, m, trials=trials, seed=seed).hits == (
            helpers.order_hits_by_randrange(n, m, plan)
        )

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (20_000, 200_000):
            tracemalloc.start()
            try:
                estimate_p(800, 797, trials=trials, seed=SEED)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one 4096-word block in three forms; the chunk plan adds a few
        # bytes per 10 000 trials
        assert peaks[1] < peaks[0] + 8 * 2**10
        assert peaks[1] < 128 * 2**10


class TestAgainstExact:
    # (n, m) pairs like those of the benchmark's `points` workload: m = n - k
    # for a forcing offset k, n in 200..800.  Seeds fixed, so deterministic.
    @pytest.mark.parametrize(
        "n, m", [(200, 200), (331, 330), (498, 496), (603, 600), (797, 797)]
    )
    def test_estimate_p_within_six_standard_errors(self, n, m):
        trials = 40_000
        p = float(p_exact(n, m))
        rec = estimate_p(n, m, trials=trials, seed=SEED + n)
        assert abs(rec.estimate - p) <= 6 * math.sqrt(p * (1 - p) / trials)


class TestSamplerMemory:
    def test_estimate_p_memory_does_not_grow_with_n(self):
        # No table or buffer may be sized by n: at n = 10**12 the draws
        # must run in the memory of a few chain values.
        tracemalloc.start()
        try:
            rec = estimate_p(10**12, 10**12, trials=1_000, seed=SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.trials == 1_000
        assert peak < 2 * 2**20


class TestWorkerPooling:
    def test_estimate_p_worker_invariance(self):
        # 25k trials span three chunks; hit counts must match exactly
        solo = estimate_p(4, 4, trials=25_000, seed=SEED, workers=1)
        pooled = estimate_p(4, 4, trials=25_000, seed=SEED, workers=3)
        assert solo == pooled

    def test_block_reader_worker_invariance(self):
        assert sampler._first_draw_classes(800, 797, 25_000) is not None
        solo = estimate_p(800, 797, trials=25_000, seed=SEED, workers=1)
        assert estimate_p(800, 797, trials=25_000, seed=SEED, workers=2) == solo

    def test_collision_worker_invariance(self):
        solo = estimate_collision(3, trials=25_000, seed=SEED, workers=1)
        pooled = estimate_collision(3, trials=25_000, seed=SEED, workers=2)
        assert solo == pooled

    def test_chi_square_worker_invariance(self):
        solo = chi_square_vs_exact(3, trials=30_000, seed=SEED, workers=1)
        pooled = chi_square_vs_exact(3, trials=30_000, seed=SEED, workers=2)
        assert solo == pooled

    def test_pool_is_capped_at_the_task_count(self, pool_sizes):
        # 20 000 trials are two chunks: a pool of two, however many workers
        # are asked for, and the same hits as in one process.
        solo = estimate_p(10, 10, trials=20_000, seed=SEED, workers=1)
        assert pool_sizes == []
        assert estimate_p(10, 10, trials=20_000, seed=SEED, workers=5000) == solo
        assert estimate_collision(3, trials=25_000, seed=SEED, workers=4) == (
            estimate_collision(3, trials=25_000, seed=SEED, workers=1)
        )
        assert pool_sizes == [2, 3]

    def test_pool_is_capped_at_the_cpu_count(self, pool_sizes, monkeypatch):
        # 100 000 trials are ten chunks; with three usable CPUs the pool
        # has three processes, and the hits are those of one process.
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)
        solo = estimate_p(10, 10, trials=100_000, seed=SEED, workers=1)
        assert estimate_p(10, 10, trials=100_000, seed=SEED, workers=5000) == solo
        assert estimate_p(10, 10, trials=100_000, seed=SEED, workers=2) == solo
        assert pool_sizes == [3, 2]

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: 16)
        assert sampler._usable_cpus() == 3
        monkeypatch.delattr(sampler.os, "sched_getaffinity")
        assert sampler._usable_cpus() == 16
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: None)
        assert sampler._usable_cpus() == 1

    def test_results_arrive_one_at_a_time(self):
        calls = []

        def note(x):
            calls.append(x)
            return x * x

        results = sampler._pooled(note, [1, 2, 3], 1)
        assert calls == []
        assert next(results) == 1
        assert calls == [1]
        assert list(results) == [4, 9]


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

    def test_runs_without_scipy(self, monkeypatch):
        # Criterion 7's runs, with scipy unimportable: the statistic, dof
        # and verdict that scipy's chi2.sf gave, and its p-value to 1e-12.
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        expected = {
            3: (120_000, 0.28704166666666664, 2, 0.8663027520252431),
            5: (120_000, 2.5696233333333334, 5, 0.7659750873550072),
            8: (220_000, 3.933311021330218, 10, 0.950305286855497),
        }
        for n, (trials, statistic, dof, p_value) in expected.items():
            res = chi_square_vs_exact(n, trials, SEED)
            assert (res.statistic, res.dof, res.passed) == (statistic, dof, True)
            assert res.p_value == pytest.approx(p_value, rel=1e-12, abs=0)


class TestChiSquareTail:
    def test_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        xs = [i / 10 for i in range(2001)]  # 0 to 200
        worst = max(
            abs(sampler._chi2_sf(x, dof) - ref) / ref
            for dof in range(1, 41)
            for x, ref in zip(xs, chi2.sf(xs, dof).tolist())
            if ref > 1e-300
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5, 60.0, 1400.0])
    def test_two_dof_is_the_exponential_tail(self, x):
        assert sampler._chi2_sf(x, 2) == math.exp(-x / 2)


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
