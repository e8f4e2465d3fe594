"""Exact and Monte Carlo computation of the distribution of the order of a
uniform random permutation of [n]."""

from __future__ import annotations

from .asymptotics import (
    RefinedGap,
    VerificationReport,
    fit_log_slope,
    predicted_point_prob,
    prediction_residual,
    refined_gap,
    second_order_term,
    verify_gap_inequality,
    verify_mode_location,
    verify_near_max_form,
)
from .exactdist import (
    BudgetExceededError,
    ModeResult,
    OrderPmf,
    collision_norm,
    full_pmf,
    mode,
    p_exact,
    support,
    tail_max,
)
from .numtheory import (
    DivisorLattice,
    FactoredInt,
    ForcingSet,
    compute_forcing_set,
    factorize,
    landau_g,
    landau_table,
)
from .sampler import (
    CycleType,
    EstimateRecord,
    chi_square_vs_exact,
    estimate_collision,
    estimate_p,
    sample_cycle_type,
)
from .store import ResultStore, SchemaVersionError

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CycleType",
    "DivisorLattice",
    "EstimateRecord",
    "FactoredInt",
    "ForcingSet",
    "ModeResult",
    "OrderPmf",
    "RefinedGap",
    "ResultStore",
    "SchemaVersionError",
    "VerificationReport",
    "chi_square_vs_exact",
    "collision_norm",
    "compute_forcing_set",
    "estimate_collision",
    "estimate_p",
    "factorize",
    "fit_log_slope",
    "full_pmf",
    "landau_g",
    "landau_table",
    "mode",
    "p_exact",
    "predicted_point_prob",
    "prediction_residual",
    "refined_gap",
    "sample_cycle_type",
    "second_order_term",
    "support",
    "tail_max",
    "verify_gap_inequality",
    "verify_mode_location",
    "verify_near_max_form",
]
