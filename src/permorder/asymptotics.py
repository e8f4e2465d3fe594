"""Predictions and explicit bounds for near-maximal order probabilities.

The point probability P(ord = n-k) at a forcing offset k is predicted by
1/(n-k) plus an exact dyadic second-order term; this module computes the
prediction, its exact residual against the true probability, four closed
upper bounds on order/cycle statistics, and verification routines that
confront several exact claims with the counting engine, reporting every
witness instead of a bare boolean.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exactdist import DEFAULT_MAX_N, DEFAULT_MAX_SUPPORT, full_pmf, mode, p_exact
from .numtheory import (
    FactoredInt,
    compute_forcing_set,
    lcm_range,
    omega,
    sigma,
    tau,
)

# Claim tags are stable identifiers shared with the result store and CLI.
CLAIM_NEAR_MAX_FORM = "thm_1_1_form"
CLAIM_MODE_LOCATION = "thm_1_2_mode"
CLAIM_FINAL_INEQUALITY = "final_inequality"

CLAIM_TAGS = frozenset(
    (
        CLAIM_NEAR_MAX_FORM,
        CLAIM_MODE_LOCATION,
        CLAIM_FINAL_INEQUALITY,
    )
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one exact claim at a single n.

    ``witnesses`` lists every offending m (or offset k) and is nonempty
    exactly when the claim fails; ``details`` carries claim-specific
    diagnostics such as the qualifying set or per-offset inequality data.
    """

    n: int
    claim: str
    holds: bool
    witnesses: tuple[int, ...]
    details: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if self.claim not in CLAIM_TAGS:
            raise ValueError(f"unknown claim tag {self.claim!r}")
        if self.holds == bool(self.witnesses):
            raise ValueError("witnesses must be nonempty exactly when the claim fails")


@dataclass(frozen=True)
class RefinedGap:
    """Scaled distance between the best order probability and the 1/n floor.

    ``exact_num`` is (max_m P(ord = m) - 1/n) * n^2, exact; ``ratio``
    divides it by ln n, the only floating-point step.
    """

    n: int
    exact_num: Fraction
    ratio: float


def second_order_term(n: int, k: int) -> Fraction:
    """Dyadic correction to the 1/(n-k) point-probability prediction.

    Zero when k is 0 or 1, or when 2^(floor(log2 k) + 1) divides n - k;
    otherwise 2^(1 - floor(log2 k)) / (n-k)^2.  The dyadic exponent comes
    from bit length, never a floating-point log, so the case split lands
    exactly at powers of two.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got n={n}, k={k}")
    if k < 2:
        return Fraction(0)
    b = k.bit_length() - 1  # floor(log2 k)
    if (n - k) % (1 << (b + 1)) == 0:
        return Fraction(0)
    return Fraction(2, (1 << b) * (n - k) ** 2)


def predicted_point_prob(n: int, k: int) -> Fraction:
    """Predicted P(ord = n-k) for a forcing offset k: 1/(n-k) plus the
    second-order term.  Offsets outside the forcing set are rejected."""
    members = compute_forcing_set(n).members
    if k not in members:
        raise ValueError(
            f"k={k} is not a forcing offset for n={n}; members are {members}"
        )
    return Fraction(1, n - k) + second_order_term(n, k)


def prediction_residual(n: int, k: int) -> Fraction:
    """|P(ord = n-k) - predicted_point_prob(n, k)|, exact.

    Needs only the single-m lattice DP, so it stays feasible well past
    the full-pmf budget.
    """
    return abs(p_exact(n, n - k) - predicted_point_prob(n, k))


def restricted_cycle_bound(n: int, cycles: int, allowed: Iterable[int]) -> Fraction:
    """Upper bound on P(exactly `cycles` cycles, all lengths in `allowed`):

        (sum of 1/i over allowed)^(cycles-1) / (n * (cycles-1)!)
    """
    js = sorted(set(allowed))
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"cycle lengths must lie in 1..{n}, got {j}")
    if cycles < 1:
        raise ValueError(f"need cycles >= 1, got {cycles}")
    harmonic = sum((Fraction(1, j) for j in js), Fraction(0))
    return harmonic ** (cycles - 1) / (n * math.factorial(cycles - 1))


def divisor_sum_bound(n: int, cycles: int, m: FactoredInt) -> Fraction:
    """`restricted_cycle_bound` specialized to allowed = divisors of m:

        (sigma(m)/m)^(cycles-1) / (n * (cycles-1)!)

    since the divisors d of m satisfy sum(1/d) = sigma(m)/m.  When some
    divisor exceeds n this is weaker than the clipped restricted bound
    but still valid.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if cycles < 1:
        raise ValueError(f"need cycles >= 1, got {cycles}")
    ratio = Fraction(sigma(m), m.value)
    return ratio ** (cycles - 1) / (n * math.factorial(cycles - 1))


def prime_assignment_bound(cycles: int, m: FactoredInt) -> Fraction:
    """Upper bound on P(exactly `cycles` cycles and ord = m): cycles^omega(m)/m.

    Each maximal prime power of m must land on one of the `cycles` cycle
    lengths, and those lengths multiply to at least m.
    """
    if cycles < 1:
        raise ValueError(f"need cycles >= 1, got {cycles}")
    return Fraction(cycles ** omega(m), m.value)


def divisor_count_bound(n: int, m: FactoredInt) -> Fraction:
    """Upper bound on P(ord divides m): tau(m)/n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(tau(m), n)


def verify_near_max_form(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> VerificationReport:
    """Check that every order with probability >= 1/n is n-k for a forcing k.

    Scans the full pmf for qualifying m (n * count >= n!) and witnesses
    each one whose offset n-m is not in the forcing set.
    """
    pmf = full_pmf(n, max_n=max_n, max_support=max_support)
    fact = math.factorial(n)
    members = set(compute_forcing_set(n).members)
    qualifying = sorted(m for m, c in pmf.entries.items() if n * c >= fact)
    witnesses = tuple(m for m in qualifying if n - m not in members)
    return VerificationReport(
        n=n,
        claim=CLAIM_NEAR_MAX_FORM,
        holds=not witnesses,
        witnesses=witnesses,
        details={"qualifying": tuple(qualifying)},
    )


def verify_mode_location(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> VerificationReport:
    """Check that the most likely order is exactly n - max(forcing offsets).

    A tie counts as failure (the claim asserts a unique maximizer), with
    every tied m reported as a witness.
    """
    result = mode(n, max_n=max_n, max_support=max_support)
    expected = n - compute_forcing_set(n).max_k
    holds = result.argmax == (expected,)
    return VerificationReport(
        n=n,
        claim=CLAIM_MODE_LOCATION,
        holds=holds,
        witnesses=() if holds else result.argmax,
        details={"expected": expected, "max_count": result.max_count},
    )


def verify_gap_inequality(n: int) -> VerificationReport:
    """Check the exact inequality separating the top forcing offset k0.

    For every forcing offset k < k0, with t the second-order term:

        (k0-k)/((n-k0)(n-k)) + t(n, k0) - t(n, k) >= 1/(n-k)^2

    Each check also records whether lcm(1..k) divides k0-k, the
    divisibility that makes k0 - k >= 2 whenever k >= 2.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    fs = compute_forcing_set(n)
    k0 = fs.max_k
    checks = []
    failing = []
    for k in fs.members:
        if k == k0:
            continue
        lhs = (
            Fraction(k0 - k, (n - k0) * (n - k))
            + second_order_term(n, k0)
            - second_order_term(n, k)
        )
        rhs = Fraction(1, (n - k) ** 2)
        ok = lhs >= rhs
        checks.append(
            {
                "k": k,
                "lhs": lhs,
                "rhs": rhs,
                "holds": ok,
                "divisible": (k0 - k) % lcm_range(k) == 0,
            }
        )
        if not ok:
            failing.append(k)
    return VerificationReport(
        n=n,
        claim=CLAIM_FINAL_INEQUALITY,
        holds=not failing,
        witnesses=tuple(failing),
        details={"k0": k0, "checks": tuple(checks)},
    )


def refined_gap(
    n: int,
    max_n: int = DEFAULT_MAX_N,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> RefinedGap:
    """How far the best probability sits above 1/n, scaled by n^2 / ln n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    best = mode(n, max_n=max_n, max_support=max_support).max_prob
    exact_num = (best - Fraction(1, n)) * n * n
    return RefinedGap(n=n, exact_num=exact_num, ratio=float(exact_num) / math.log(n))


def _log_fraction(value: Fraction) -> float:
    # math.log accepts arbitrarily large ints, so splitting the fraction
    # keeps values far outside float range usable.
    return math.log(value.numerator) - math.log(value.denominator)


def fit_log_slope(points: Iterable[tuple[int | Fraction, Fraction]]) -> float:
    """Least-squares slope of ln(y) against ln(x) over (x, y) pairs."""
    xs: list[float] = []
    ys: list[float] = []
    for x, y in points:
        fx, fy = Fraction(x), Fraction(y)
        if fx <= 0 or fy <= 0:
            raise ValueError(f"points must be positive, got ({x}, {y})")
        xs.append(_log_fraction(fx))
        ys.append(_log_fraction(fy))
    try:
        return statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError as exc:
        raise ValueError(str(exc)) from exc
