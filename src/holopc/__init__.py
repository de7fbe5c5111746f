"""Group-valued pairwise comparisons, holonomy on 2-complexes, and Haar Monte Carlo."""

from .consistencize import (
    ConsistencizationResult,
    consistencize_abelian,
    consistencize_riemannian,
    epsilon_membership,
    lsq_gradient,
    lsq_hessian,
    lsq_objective,
    residual_between,
)
from .errors import (
    FloatRangeError,
    GapError,
    GroupMismatchError,
    InconsistentMatrixError,
    InvalidMatrixError,
    LogBranchError,
    MissingEdgeError,
    NonCompactGroupError,
    ParseError,
)
from .groups import RPLUS, SU2, U1, CyclicGroup, Group, group_from_tag, zmod
from .integrate import (
    Histogram,
    MCEstimate,
    Observable,
    block_rng,
    expectation,
    ii_distribution,
    sample_field,
    sample_rng,
)
from .pcmatrix import (
    CONTRAVARIANT,
    COVARIANT,
    ConsistencyCheck,
    PCMatrix,
    default_indicator,
    dualize,
    from_gauge_vector,
    from_upper_triangle,
    gauge_extract,
    gauge_transform,
    identity_matrix,
    ii3,
    ii3_matrix,
    ii_indicator,
    ii_n_chain,
    is_consistent,
    normalize_gauge,
    random_pc_matrix,
    triad_holonomy,
    validate,
)
from .simplicial import (
    EdgeField,
    SimplicialComplex2,
    field_from_gauge,
    full_simplex,
    gauge_transform_field,
    global_ii,
    grid_complex,
    holonomy_pc_matrix,
    identity_field,
    path_holonomy,
    plaquette,
    spanning_tree_gauge,
    triangle_curvature,
)

__version__ = "0.1.0"
