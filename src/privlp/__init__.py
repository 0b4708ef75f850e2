"""Differentially private linear constraints for convex programs.

Privatizes the coefficient matrix of ``A x <= b`` with bounded, upward
noise so that (i) the privatized problem is always feasible and (ii) its
solution satisfies the original constraints; computes the expected
performance-loss bound; applies the pipeline to constrained-MDP policy
synthesis.
"""

from .problem import (
    ConstraintSystem,
    DimensionError,
    FeasibilityAssumptionError,
    LinearProgram,
    MembershipError,
    PrivacyParams,
    SchemaError,
    ValidatedProblem,
    load_problem,
    validate,
)
from .mechanism import (
    PrivatizedSystem,
    privatize_matrix,
    privatized_document,
    sample_trunc_laplace,
    support_width,
)
from .simplex import Solution, WarmStart, max_norm_point, phase1_feasible, solve_lp
from .accuracy import (
    AccuracyReport,
    BoundGeometry,
    DegenerateSystemError,
    HoffmanSizeError,
    bound_geometry,
    cost_bound,
    hoffman_constant,
    inner_cone_min,
    xi_term,
)
from .cmdp import (
    Cmdp,
    GridConfig,
    InfeasibleBudgetError,
    Policy,
    build_gridworld,
    cost_of_privacy,
    default_grid,
    load_grid_config,
    occupancy_lp,
    synthesize_policy,
    value_function,
)
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport", "BoundGeometry", "Cmdp", "ConstraintSystem", "DegenerateSystemError",
    "DimensionError", "FeasibilityAssumptionError", "GridConfig",
    "HoffmanSizeError", "InfeasibleBudgetError", "LinearProgram",
    "MembershipError", "Policy", "PrivacyParams", "PrivatizedSystem",
    "SchemaError", "Solution", "ValidatedProblem", "WarmStart",
    "bound_geometry", "build_gridworld", "cost_bound", "cost_of_privacy", "default_grid",
    "derive_seed", "hoffman_constant", "inner_cone_min",
    "load_grid_config", "load_problem", "max_norm_point", "occupancy_lp", "phase1_feasible",
    "privatize_matrix", "privatized_document", "sample_trunc_laplace", "solve_lp",
    "support_width", "synthesize_policy", "validate", "value_function", "xi_term",
]
