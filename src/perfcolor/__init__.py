"""Perfect colorings of graphs over exact rational arithmetic.

A perfect coloring (equitable partition) of a graph with adjacency matrix
M is a partition matrix P and parameter matrix S with M P = P S.  This
package verifies the identity exactly, applies row-distance rejection
filters to rule out putative parameter matrices, and runs exhaustive
periodic searches on circulant graphs and plane grids through their
finite quotients.
"""

from .coloring import (
    Coloring,
    PerfectColoringTriple,
    TwoColorParams,
    VerifyResult,
    imperfection_witness,
    induced_parameters,
    make_triple,
    partition_matrix,
    poly_lift,
    two_color_matrix,
    two_color_params,
    verify_perfect,
)
from .filters import (
    FilterVerdict,
    ForcedDistributions,
    ForcedSets,
    PairContext,
    Side,
    VerdictStatus,
    distance_power_check,
    drg_check,
    drg_sides,
    forced_distributions,
    pair_color_feasible,
    row_distance_scan,
    simple_pair_bound,
    two_color_check,
    two_color_forced_sets,
)
from .graphs import (
    DistancePolynomials,
    Graph,
    IntersectionArray,
    common_neighbor_count,
    complete,
    cycle,
    diameter,
    distance_matrices,
    distance_polynomials,
    from_edges,
    intersection_array,
    neighborhood,
    petersen,
    regularity,
)
from .periodic import (
    BudgetExceededError,
    CirculantSpec,
    DeltaVerdict,
    EnumeratedColoring,
    GridRejectReport,
    GridSpec,
    PeriodConstraint,
    SearchOutcome,
    SearchStats,
    SearchStatus,
    circulant_enumerate,
    circulant_h,
    circulant_period_filter,
    circulant_quotient,
    grid_h,
    grid_reject_2color,
    offset_automorphisms,
    patch_search,
    periodic_coloring_canonical,
    torus_quotient,
    torus_search,
)
from .ratmat import (
    Polynomial,
    RationalMatrix,
    l1_row_distance,
    rat,
    rat_to_json,
)

__version__ = "0.1.0"
