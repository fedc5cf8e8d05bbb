"""Similarity-sensitive diversity of every order, and how to maximize it.

A community is a probability distribution p over n species together with a
similarity matrix Z.  This package evaluates the diversity of order q for
any q in [0, inf], computes diversity profiles, and finds the distributions
that maximize diversity of all orders simultaneously, together with the
maximum value, via a finite subset sweep plus a polynomial-time fast path
for positive semidefinite matrices.
"""

from .diversity import (
    DEFAULT_ORDERS,
    Distribution,
    DiversityProfile,
    diversity,
    diversity_profile,
    extend_by_zero,
    power_mean,
    restrict,
    uniform,
)
from .errors import InputError, MaxdivError, NumericalError, ParseError, PreconditionError
from .graphs import (
    CliqueCapacityResult,
    EpsilonEntropyBounds,
    FiniteMetric,
    IrreflexiveGraph,
    ReflexiveGraph,
    adjacency_matrix,
    clique_capacity,
    clique_number,
    covering_number,
    epsilon_entropy_bounds,
    independence_number,
    maximum_clique,
    maximum_independent_set,
)
from .linalg import (
    SimilarityMatrix,
    WeightingSolution,
    find_nonnegative_weighting,
    find_positive_weighting,
    is_positive_definite,
    is_positive_semidefinite,
    is_strictly_diagonally_dominant,
    is_ultrametric,
    magnitude,
    solve_weighting_space,
)
from .maximize import (
    FeasibleSubset,
    FullSupportDiagnostics,
    MaximizationResult,
    full_support_diagnostics,
    is_invariant,
    maximize,
    maximize_exhaustive,
    maximize_fast_path,
    normalize_weighting,
)
from .oracle import GridMax, GridSpec, grid_max, grid_max_multi, refine

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDERS",
    "Distribution",
    "DiversityProfile",
    "CliqueCapacityResult",
    "EpsilonEntropyBounds",
    "FeasibleSubset",
    "FiniteMetric",
    "FullSupportDiagnostics",
    "GridMax",
    "GridSpec",
    "InputError",
    "IrreflexiveGraph",
    "MaxdivError",
    "MaximizationResult",
    "NumericalError",
    "ParseError",
    "PreconditionError",
    "ReflexiveGraph",
    "SimilarityMatrix",
    "WeightingSolution",
    "adjacency_matrix",
    "clique_capacity",
    "clique_number",
    "covering_number",
    "diversity",
    "diversity_profile",
    "epsilon_entropy_bounds",
    "extend_by_zero",
    "find_nonnegative_weighting",
    "find_positive_weighting",
    "full_support_diagnostics",
    "grid_max",
    "grid_max_multi",
    "independence_number",
    "is_invariant",
    "is_positive_definite",
    "is_positive_semidefinite",
    "is_strictly_diagonally_dominant",
    "is_ultrametric",
    "magnitude",
    "maximize",
    "maximize_exhaustive",
    "maximize_fast_path",
    "maximum_clique",
    "maximum_independent_set",
    "normalize_weighting",
    "power_mean",
    "refine",
    "restrict",
    "solve_weighting_space",
    "uniform",
]
