"""Tests for the arithmetic-function layer.

Expected values were frozen from the independent oracles in helpers.py
(definition-level recomputation, exhaustive partition enumeration) before the
implementation was written.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from permorder import numtheory
from permorder.numtheory import (
    LANDAU_MAX_N,
    BudgetExceededError,
    DivisorLattice,
    FactoredInt,
    ForcingSet,
    compute_forcing_set,
    factorize,
    landau_g,
    landau_table,
    lcm_range,
    omega,
    primes_up_to,
    sigma,
    tau,
)


def direct_divisors(m: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            out.append(d)
            if d * d != m:
                out.append(m // d)
    return sorted(out)


class TestFactorize:
    def test_examples(self):
        assert factorize(1).factors == ()
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(97).factors == ((97, 1),)
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_reconstruction_small(self):
        for m in range(1, 2000):
            f = factorize(m)
            assert f.value == m
            prod = 1
            for p, e in f.factors:
                assert e >= 1
                prod *= p**e
            assert prod == m
            primes = [p for p, _ in f.factors]
            assert primes == sorted(primes)

    def test_primality_of_reported_primes(self):
        for m in (2, 3, 4, 97 * 89, 2**10 * 3**5, 9973, 10_000):
            for p, _ in factorize(m).factors:
                assert all(p % q for q in range(2, math.isqrt(p) + 1))

    @given(st.integers(1, 10**9), st.integers(0, 200))
    @settings(max_examples=500, deadline=None)
    def test_bounded_trial_division(self, m, top):
        # Only primes <= top are divided out; a cofactor > 1 is one the
        # division could not settle, with every prime factor > top.
        factors, rem = numtheory._trial_factors(m, top)
        assert math.prod(p**e for p, e in factors) * rem == m
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        full = dict(factorize(m).factors)
        assert all(full[p] == e for p, e in factors)
        if rem > 1:
            assert all(p > top for p, _ in factorize(rem).factors)
            assert all(p <= top for p, _ in factors)
        else:
            assert dict(factors) == full

    def test_malformed_factoredint_rejected(self):
        with pytest.raises(ValueError):
            FactoredInt(6, ((3, 1), (2, 1)))  # primes out of order
        with pytest.raises(ValueError):
            FactoredInt(6, ((2, 1),))  # does not reconstruct
        with pytest.raises(ValueError):
            FactoredInt(4, ((2, 0), (2, 2)))  # zero exponent

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, m):
        f = factorize(m)
        assert math.prod(p**e for p, e in f.factors) == m


class TestArithmeticFunctions:
    def test_frozen_examples(self):
        assert tau(factorize(1)) == 1
        assert tau(factorize(12)) == 6
        assert sigma(factorize(1)) == 1
        assert sigma(factorize(6)) == 12
        assert sigma(factorize(4)) == 7
        assert omega(factorize(1)) == 0
        assert omega(factorize(12)) == 2
        assert omega(factorize(30)) == 3

    def test_against_direct_enumeration(self):
        # every m up to 10^4, compared against a naive divisor sweep
        for m in range(1, 10_001):
            divs = direct_divisors(m)
            f = factorize(m)
            assert tau(f) == len(divs)
            assert sigma(f) == sum(divs)
            assert omega(f) == len(f.factors)


class TestDivisorLattice:
    def test_divisors_sorted_and_complete(self):
        for m in (1, 2, 12, 97, 360, 2520):
            lat = DivisorLattice(factorize(m))
            assert list(lat.divisors) == direct_divisors(m)
            assert len(lat.divisors) == tau(factorize(m))

    def test_lcm_index_matches_arithmetic_lcm(self):
        for m in (1, 4, 12, 30, 360, 97, 2**5 * 3**3):
            lat = DivisorLattice(factorize(m))
            divs = lat.divisors
            table = lat.lcm_index
            one = divs.index(1)
            for i, a in enumerate(divs):
                assert table[one][i] == i  # 1 is the identity
                assert table[i][i] == i  # idempotent
                for j, b in enumerate(divs):
                    assert table[i][j] == table[j][i]  # commutative
                    assert divs[table[i][j]] == math.lcm(a, b)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_lcm_closure_property(self, m):
        lat = DivisorLattice(factorize(m))
        divs = lat.divisors
        for i in range(0, len(divs), 3):
            for j in range(0, len(divs), 3):
                assert divs[lat.lcm_index[i][j]] == math.lcm(divs[i], divs[j])

    def test_mobius_steps_invert_divisor_sums(self):
        for m in (1, 12, 97, 360, 2520, 2**5 * 3**3):
            divs = DivisorLattice(factorize(m)).divisors
            f = [d * d + 7 * (d % 5) for d in divs]
            values = [sum(fe for e, fe in zip(divs, f) if d % e == 0) for d in divs]
            for i, k in DivisorLattice(factorize(m)).mobius_steps():
                values[i] -= values[k]
            assert values == f


class TestLcmRange:
    def test_frozen_values(self):
        # lcm of the empty range is 1 by convention, so k=0,1 give 1
        assert lcm_range(0) == 1
        assert lcm_range(1) == 1
        assert lcm_range(2) == 2
        assert lcm_range(3) == 6
        assert lcm_range(4) == 12
        assert lcm_range(5) == 60
        assert lcm_range(6) == 60
        assert lcm_range(7) == 420
        assert lcm_range(10) == 2520

    def test_matches_reduce(self):
        for k in range(1, 60):
            acc = 1
            for i in range(1, k + 1):
                acc = math.lcm(acc, i)
            assert lcm_range(k) == acc

    def test_divisibility_chain(self):
        for k in range(1, 40):
            assert lcm_range(k + 1) % lcm_range(k) == 0

    def test_large_k(self):
        # a recursive definition would exceed the interpreter's stack here
        assert lcm_range(5000) == math.lcm(*range(1, 5001))


class TestForcingSet:
    def test_frozen_examples(self):
        assert compute_forcing_set(10).members == (0, 1, 2)
        assert compute_forcing_set(10).max_k == 2
        assert compute_forcing_set(3).members == (0, 1)
        assert compute_forcing_set(6).members == (0, 1, 2)
        # n=65 and n=66 sit at lcm(1..k)+k for k=5 and k=6
        assert compute_forcing_set(65).members == (0, 1, 5)
        assert compute_forcing_set(66).members == (0, 1, 2, 6)
        assert compute_forcing_set(9).members == (0, 1, 3)
        assert compute_forcing_set(16).members == (0, 1, 2, 4)

    def test_contains_zero_and_one(self):
        for n in range(2, 500):
            members = compute_forcing_set(n).members
            assert members[0] == 0 and members[1] == 1

    def test_definition_level_recomputation(self):
        for n in range(1, 1001):
            fs = compute_forcing_set(n)
            assert list(fs.members) == helpers.forcing_members_by_definition(n)
            assert fs.max_k == fs.members[-1]
            assert fs.n == n

    def test_max_k_growth_bound(self):
        # max k grows like log n: max_k <= 3 ln n + 2 over the whole range
        for n in range(2, 10_001):
            assert compute_forcing_set(n).max_k <= 3 * math.log(n) + 2

    def test_record_is_sorted_and_in_range(self):
        for n in (2, 17, 64, 210, 1000):
            members = compute_forcing_set(n).members
            assert list(members) == sorted(set(members))
            assert all(0 <= k < n for k in members)


class TestLandau:
    def test_frozen_examples(self):
        assert landau_g(0) == 1
        assert landau_g(1) == 1
        assert landau_g(2) == 2
        assert landau_g(3) == 3
        assert landau_g(4) == 4
        assert landau_g(5) == 6
        assert landau_g(10) == 30

    def test_against_partition_enumeration(self):
        for n in range(1, 31):
            assert landau_g(n) == helpers.landau_by_partitions(n)

    def test_monotone(self):
        vals = [landau_g(n) for n in range(0, 80)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_table_holds_every_smaller_n(self):
        assert landau_table(120) == [landau_g(n) for n in range(121)]

    def test_budget(self, monkeypatch):
        started = []
        monkeypatch.setattr(numtheory, "primes_up_to", lambda n: started.append(n) or [])
        with pytest.raises(BudgetExceededError, match=f"exceeds LANDAU_MAX_N={LANDAU_MAX_N}"):
            landau_g(LANDAU_MAX_N + 1)
        assert started == []


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
