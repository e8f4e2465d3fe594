"""Exact arithmetic-function layer.

Factorizations, divisor lattices with their Moebius-inversion order, lcms
of initial ranges, the order-forcing k set, and Landau's function.
Everything is exact integer arithmetic; floats never appear here.  The
package's trial division lives here alone, in `_trial_factors`.
`BudgetExceededError` lives here, the lowest layer, so that every layer
can refuse an input past its size budget with the same error.

`DivisorLattice.lcm_index`, the lattice's lcm composition table, is read
by no code in this package.  It is kept only because the benchmark's
tracer (bench/tracing.py) patches `_build_lcm_index` by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

__all__ = [
    "FactoredInt",
    "DivisorLattice",
    "ForcingSet",
    "factorize",
    "tau",
    "sigma",
    "omega",
    "lcm_range",
    "compute_forcing_set",
    "landau_g",
    "landau_table",
    "primes_up_to",
    "BudgetExceededError",
    "LANDAU_MAX_N",
]

# landau_table(10 000) took 1.6 s of CPU on a 2-vCPU host and (20 000)
# 6.4 s: the knapsack grows about like n^2 / log n.
LANDAU_MAX_N = 10_000


class BudgetExceededError(Exception):
    """A computation would exceed its configured size budget.

    Raised loudly instead of silently truncating, so the caller can
    decide whether to raise the budget or pick a cheaper route.
    """


@dataclass(frozen=True)
class FactoredInt:
    """A natural number >= 1 together with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"need a positive integer, got {self.value}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization of {self.value}")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise ValueError(f"factors do not reconstruct {self.value}")


def _trial_factors(m: int, top: int) -> tuple[list[tuple[int, int]], int]:
    """Divide the primes p <= top out of m >= 1: (factors, cofactor).

    The candidates are 2, 3, then 6k +- 1, and the division stops once
    p * p exceeds what is left.  A leftover proven to be 1 or a prime goes
    into the factors and the cofactor is 1.  Otherwise the cofactor is > 1
    and every prime factor of it exceeds ``top``.  `factorize`,
    `exactdist.p_exact` and the sampler's set-up each pass their own
    ``top``.  Private, so that bench/tracing.py, which wraps this module's
    public functions, adds no span for it.
    """
    factors = []
    rem = m
    p, step = 2, 1  # p runs 2, 3, 5, 7, 11, 13, 17, ...
    while p <= top and p * p <= rem:
        if not rem % p:
            e = 0
            while not rem % p:
                rem //= p
                e += 1
            factors.append((p, e))
        p += step
        step = 4 if p % 6 == 1 else 2
    if p * p > rem:
        if rem > 1:
            factors.append((rem, 1))
        rem = 1
    return factors, rem


# Bounded so a long run over many m cannot grow it without limit; a
# factorization is a few hundred bytes, and callers reuse recent m only.
@lru_cache(maxsize=1024)
def factorize(m: int) -> FactoredInt:
    """Prime factorization by trial division up to sqrt(m)."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}; need m >= 1")
    factors, _ = _trial_factors(m, math.isqrt(m))
    return FactoredInt(m, tuple(factors))


def tau(f: FactoredInt) -> int:
    """Number of divisors."""
    out = 1
    for _, e in f.factors:
        out *= e + 1
    return out


def sigma(f: FactoredInt) -> int:
    """Sum of divisors."""
    out = 1
    for p, e in f.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def omega(f: FactoredInt) -> int:
    """Number of distinct prime factors."""
    return len(f.factors)


class DivisorLattice:
    """All divisors of m, sorted ascending, with their Moebius-inversion order.

    ``lcm_index[i][j]`` is the index of lcm(divisors[i], divisors[j]). The
    dense table is built lazily, on first use, so that plain divisor
    queries stay linear in tau(m).  No code in this package reads it; it
    stays only for the by-name patch of `_build_lcm_index` in
    bench/tracing.py.
    """

    def __init__(self, m: FactoredInt):
        self.m = m
        divs = [1]
        for p, e in m.factors:
            pk = 1
            more = []
            for _ in range(e):
                pk *= p
                more.extend(d * pk for d in divs)
            divs.extend(more)
        divs.sort()
        self.divisors: tuple[int, ...] = tuple(divs)
        self._pos = {d: i for i, d in enumerate(divs)}
        self._lcm_index: tuple[tuple[int, ...], ...] | None = None

    def mobius_steps(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, k) for ``values[i] -= values[k]``, run in order.

        If ``values`` lists F(d) = sum of f(d') over d' | d by divisor, the
        steps leave f(d) in its place.  They invert one prime p at a time:
        over the divisors in descending order, f(d) -= f(d/p) wherever
        p | d.  Descending, each d/p is read before this prime reaches it.
        """
        divisors = self.divisors
        pos = self._pos
        for p, _ in self.m.factors:
            for i in range(len(divisors) - 1, -1, -1):
                d = divisors[i]
                if d % p == 0:
                    yield i, pos[d // p]

    @property
    def lcm_index(self) -> tuple[tuple[int, ...], ...]:
        if self._lcm_index is None:
            self._lcm_index = self._build_lcm_index()
        return self._lcm_index

    def _build_lcm_index(self) -> tuple[tuple[int, ...], ...]:
        primes = [p for p, _ in self.m.factors]
        vecs = []
        for d in self.divisors:
            v = []
            for p in primes:
                a = 0
                while d % p == 0:
                    d //= p
                    a += 1
                v.append(a)
            vecs.append(v)
        pos = self._pos
        table = []
        for vi in vecs:
            row = []
            for vj in vecs:
                val = 1
                for p, a, b in zip(primes, vi, vj):
                    val *= p ** (a if a >= b else b)
                row.append(pos[val])
            table.append(tuple(row))
        return tuple(table)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DivisorLattice(m={self.m.value}, tau={len(self.divisors)})"


@lru_cache(maxsize=None)
def lcm_range(k: int) -> int:
    """lcm(1..k); the empty range (k <= 1) gives 1."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return math.lcm(*range(1, k + 1))


@dataclass(frozen=True)
class ForcingSet:
    """k values for which an (n-k)-cycle pins the order of the permutation.

    k is a member when lcm(1..k) divides n-k: a permutation of [n]
    containing an (n-k)-cycle then has all remaining cycle lengths <= k
    dividing n-k, so its order is exactly n-k. Always contains 0 and 1 for
    n >= 2; members are ascending and max_k is the largest.
    """

    n: int
    members: tuple[int, ...]
    max_k: int


def compute_forcing_set(n: int) -> ForcingSet:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    members = []
    k = 0
    while k < n:
        ell = lcm_range(k)
        if ell > n:
            break  # lcm(1..k) only grows and cannot divide any n-k >= 1
        if (n - k) % ell == 0:
            members.append(k)
        k += 1
    return ForcingSet(n, tuple(members), members[-1])


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a plain sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def landau_table(n: int) -> list[int]:
    """Landau's g(b) for every b in 0..n: the largest lcm of a partition of b.

    Knapsack over prime powers: each prime p <= n contributes either nothing
    or one power p^a at additive cost p^a. best[b] is the largest product
    attainable with total cost <= b; descending budget order keeps each
    prime to a single power per pass.  An n above LANDAU_MAX_N raises
    `BudgetExceededError` before any work is done.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > LANDAU_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds LANDAU_MAX_N={LANDAU_MAX_N}")
    best = [1] * (n + 1)
    for p in primes_up_to(n):
        powers = []
        pk = p
        while pk <= n:
            powers.append(pk)
            pk *= p
        for budget in range(n, p - 1, -1):
            b = best[budget]
            for q in powers:
                if q > budget:
                    break
                cand = best[budget - q] * q
                if cand > b:
                    b = cand
            best[budget] = b
    return best


def landau_g(n: int) -> int:
    """Largest order of any permutation of [n] (largest lcm of a partition)."""
    return landau_table(n)[n]
