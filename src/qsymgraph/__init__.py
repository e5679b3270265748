"""Exact quantum-symmetry invariants of finite colored graphs."""

from .classify import (
    Classification,
    CyclicVerdict,
    EnumeratedGraph,
    EnumerationReport,
    FussCatalanMatch,
    LandauReport,
    ProductVerdict,
    canonical_key,
    check_landau_relations,
    classify,
    cyclic_criterion,
    enumerate_homogeneous,
    landau_verify,
    product_factor_candidates,
    product_test,
    recognize_fuss_catalan,
    regular_graph_reps,
)
from .closure import (
    ClosureConfig,
    ClosureResult,
    ModularMismatchError,
    ResourceCapError,
    bounded_c1,
    closure,
)
from .graphs import (
    ColorComponent,
    ColoredGraph,
    CyclicProfile,
    GraphError,
    GraphParseError,
    MetricSpace,
    complement,
    complete,
    cube,
    cube_metric,
    cyclic_from_profile,
    decompose,
    disjoint_copies,
    edgeless,
    eight_spoke_wheel,
    incidence,
    is_isomorphic,
    loop_counts,
    loop_rule_check,
    metric_import,
    multi_simplex,
    n_gon,
    nine_star,
    oriented_n_gon,
    parse_graph,
    tensor_product,
    total_matrix,
    validate,
    write_graph,
)
from .linalg import ExactMatrix, char_poly, rational_eigenvalues
from .scalars import CyclotomicElement, GaussianRational
from .series import (
    CubeSeries,
    CyclicGroupSeries,
    DihedralSeries,
    FussCatalan,
    HadamardProduct,
    PoincareSeries,
    RationalSum,
    tl_series,
)
from .symmetry import (
    ClassicalCoaction,
    PermutationGroup,
    automorphism_group,
    classical_series_prefix,
    fixed_point_histogram,
)

__version__ = "0.1.0"
