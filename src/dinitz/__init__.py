"""Constructive list coloring of kernel-perfect digraph orientations.

The headline act is :func:`solve_dinitz`: pick one color per cell of an
n x n grid, each from its own list of at least n colors, so that every
row and every column stays all-distinct.  Underneath sit reusable
pieces: oriented rook's graphs, digraph kernels with exhaustive
oracles, and Gale-Shapley deferred acceptance over incomplete
preference lists.
"""

from .digraph import (
    BidirectionalEdgeError,
    ColoringReport,
    Digraph,
    GraphError,
    SelfLoopError,
    VertexRangeError,
    format_digraph,
    induced_subgraph,
    is_independent,
    make_digraph,
    outdegree,
    parse_digraph,
    verify_list_coloring,
    vertex_subset,
)
from .kernel import (
    PropertyXReport,
    find_kernel_bruteforce,
    has_property_x,
    is_kernel,
)
from .matching import (
    PreferenceProfile,
    ProfileError,
    StabilityReport,
    deferred_acceptance,
    enumerate_stable_matchings,
    is_stable,
)
from .galvin import (
    ColorPass,
    DinitzInstance,
    KernelOracle,
    KernelOracleError,
    LatinReport,
    UndersizedListError,
    build_square_orientation,
    is_square_kernel,
    latin_value,
    list_color_with_kernels,
    solve_dinitz,
    square_kernel_oracle,
    verify_generalized_latin,
    vertex_to_cell,
)

__version__ = "0.1.0"

__all__ = [
    "BidirectionalEdgeError",
    "ColorPass",
    "ColoringReport",
    "Digraph",
    "DinitzInstance",
    "GraphError",
    "KernelOracle",
    "KernelOracleError",
    "LatinReport",
    "PreferenceProfile",
    "ProfileError",
    "PropertyXReport",
    "SelfLoopError",
    "StabilityReport",
    "UndersizedListError",
    "VertexRangeError",
    "build_square_orientation",
    "deferred_acceptance",
    "enumerate_stable_matchings",
    "find_kernel_bruteforce",
    "format_digraph",
    "has_property_x",
    "induced_subgraph",
    "is_independent",
    "is_kernel",
    "is_square_kernel",
    "is_stable",
    "latin_value",
    "list_color_with_kernels",
    "make_digraph",
    "outdegree",
    "parse_digraph",
    "solve_dinitz",
    "square_kernel_oracle",
    "verify_generalized_latin",
    "verify_list_coloring",
    "vertex_subset",
    "vertex_to_cell",
]
