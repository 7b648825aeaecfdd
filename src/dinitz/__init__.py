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

# solve_dinitz never runs the exhaustive kernel code or the generic
# matching: each of their names, and each of the two modules, is imported
# on first use.
_LAZY = {
    name: module
    for module, names in {
        "kernel": (
            "PropertyXReport",
            "find_kernel_bruteforce",
            "has_property_x",
            "is_kernel",
        ),
        "matching": (
            "PreferenceProfile",
            "ProfileError",
            "StabilityReport",
            "deferred_acceptance",
            "enumerate_stable_matchings",
            "is_stable",
        ),
    }.items()
    for name in (module, *names)
}

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


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
