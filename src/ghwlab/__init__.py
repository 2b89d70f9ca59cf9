"""Weight hierarchies of a family of cyclic codes built from trace evaluations.

Closed-form hierarchy plus two independent brute-force oracles (direct
subcode enumeration and a dual cyclotomy-intersection recount), with exact
finite-field arithmetic, numeric Gauss periods, and a reproducibility-minded
CLI.
"""

__version__ = "0.1.0"

from .cyclotomy import CyclotomyCtx, GaussPeriodTable, semiprimitive_j
from .codes import (
    AssumptionReport,
    CodeParams,
    HypothesisReport,
    TraceCode,
    check_closed_form_hypotheses,
    derive_params,
)
from .errors import BudgetExceeded, GhwlabError, HypothesesNotMet
from .fields import FieldCtx, PolyOverFq, build_field
from .hierarchy import (
    FormulaParams,
    OpConditionError,
    achieving_subspace,
    character_sum_count,
    closed_form_dr,
    closed_form_hierarchy,
    enumerate_profiles,
    max_class_intersection,
    optimize_profile,
    profile_objective,
    rank_decomposition,
    shift_cross,
    shift_high,
    shift_low,
    split_half_pair,
    unshift_cross,
)
from .oracle import (
    DEFAULT_BUDGET,
    DualContext,
    GHWResult,
    count_common_zeros,
    count_via_dual,
    ghw_bruteforce,
    ghw_dual_sweep,
)
from .subspaces import SubspaceIter, gaussian_binomial

__all__ = [
    "AssumptionReport",
    "BudgetExceeded",
    "CodeParams",
    "CyclotomyCtx",
    "DEFAULT_BUDGET",
    "DualContext",
    "FieldCtx",
    "FormulaParams",
    "GHWResult",
    "GaussPeriodTable",
    "GhwlabError",
    "HypothesesNotMet",
    "HypothesisReport",
    "OpConditionError",
    "PolyOverFq",
    "SubspaceIter",
    "TraceCode",
    "achieving_subspace",
    "build_field",
    "character_sum_count",
    "check_closed_form_hypotheses",
    "closed_form_dr",
    "closed_form_hierarchy",
    "count_common_zeros",
    "count_via_dual",
    "derive_params",
    "enumerate_profiles",
    "gaussian_binomial",
    "ghw_bruteforce",
    "ghw_dual_sweep",
    "max_class_intersection",
    "optimize_profile",
    "profile_objective",
    "rank_decomposition",
    "semiprimitive_j",
    "shift_cross",
    "shift_high",
    "shift_low",
    "split_half_pair",
    "unshift_cross",
]
