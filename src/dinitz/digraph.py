"""Immutable directed graphs on dense 0-based integer vertex ids.

Every graph here is an orientation of a simple graph: self-loops are
rejected, and at most one of (u, v) and (v, u) may be present.  Vertex
subsets are plain iterables of ints, and queries on a subset read only
the successor sets of its members.  The per-vertex bitmasks are for the
exhaustive searches, which build them on the small graph they search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, Sequence

# parse_digraph refuses headers above this many vertices by default:
# make_digraph allocates a set and then a frozenset per vertex, about
# 450 B at peak, before it reads an edge.  The 512 x 512 grid has this many.
MAX_VERTICES = 1 << 18

# parse_digraph refuses headers above this many edges, and 'orient'
# refuses an N whose N^2 (N - 1) edges exceed it.  A read peaks at
# about 280 B per edge (text, tokens, ints, then the successor sets):
# 585 MB for 2^21 random edges on 2^18 vertices, and 531 MB for
# 'kernel --mode gs-square' on 'orient 128', the largest N admitted.
MAX_EDGES = 1 << 21


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of a collection of distinct vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v  # twice as fast as sum() on masks of thousands of bits
    return mask


class GraphError(ValueError):
    """Invalid graph construction or query input."""


class VertexRangeError(GraphError):
    """A vertex id falls outside [0, num_vertices)."""


class SelfLoopError(GraphError):
    """An edge (v, v) was supplied."""


class BidirectionalEdgeError(GraphError):
    """Both (u, v) and (v, u) were supplied."""


@dataclass(frozen=True)
class Digraph:
    """A directed graph stored as per-vertex successor sets.

    Construct through :func:`make_digraph`, which validates the
    orientation invariants; the raw constructor trusts its input.
    Instances are immutable and safe to share across threads.
    """

    num_vertices: int
    succ: tuple[frozenset[int], ...]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """All edges as ordered (u, v) pairs."""
        return frozenset(
            (u, v) for u in range(self.num_vertices) for v in self.succ[u]
        )

    @cached_property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.succ)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Bitmask of out-neighbors per vertex."""
        return tuple(map(_mask, self.succ))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Bitmask of neighbors per vertex, ignoring edge direction."""
        masks = [0] * self.num_vertices
        for u in range(self.num_vertices):
            for v in self.succ[u]:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return tuple(masks)

    def __repr__(self) -> str:
        return f"Digraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"


def make_digraph(num_vertices: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """Build a validated digraph.

    Duplicate edges collapse silently.  Raises :class:`VertexRangeError`,
    :class:`SelfLoopError` or :class:`BidirectionalEdgeError` for the
    three ways an input can break the orientation invariants.
    """
    if num_vertices < 0:
        raise VertexRangeError(f"num_vertices must be non-negative, got {num_vertices}")
    succ: list[set[int]] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise VertexRangeError(
                f"edge ({u}, {v}) has an endpoint outside [0, {num_vertices})"
            )
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u in succ[v]:
            raise BidirectionalEdgeError(
                f"both ({v}, {u}) and ({u}, {v}) were given; orientations allow only one"
            )
        succ[u].add(v)
    return Digraph(num_vertices, tuple(frozenset(s) for s in succ))


def vertex_subset(g: Digraph, vertices: Iterable[int]) -> frozenset[int]:
    """Normalize an iterable of vertex ids, checking range."""
    members = frozenset(vertices)
    for v in members:
        if not 0 <= v < g.num_vertices:
            raise VertexRangeError(f"vertex {v} out of range [0, {g.num_vertices})")
    return members


def outdegree(g: Digraph, v: int) -> int:
    """Number of edges leaving v."""
    if not 0 <= v < g.num_vertices:
        raise VertexRangeError(f"vertex {v} out of range [0, {g.num_vertices})")
    return len(g.succ[v])


def induced_subgraph(
    g: Digraph, vertices: Iterable[int]
) -> tuple[Digraph, dict[int, int]]:
    """Subgraph on the given vertices, relabeled densely.

    Keeps exactly the edges with both endpoints in the subset and returns
    the old-id -> new-id relabeling alongside the new graph.  Old ids are
    assigned new ids in ascending order.
    """
    members = vertex_subset(g, vertices)
    order = sorted(members)
    relabel = {old: new for new, old in enumerate(order)}
    succ = tuple(
        frozenset(relabel[w] for w in g.succ[old] if w in members) for old in order
    )
    return Digraph(len(order), succ), relabel


def is_independent(g: Digraph, vertices: Iterable[int]) -> bool:
    """True iff no edge of g, in either direction, joins two of the vertices."""
    members = vertex_subset(g, vertices)
    return all(g.succ[v].isdisjoint(members) for v in members)


@dataclass(frozen=True)
class ColoringReport:
    """Outcome of a proper-list-coloring check.

    ``reason`` is one of "uncolored-vertex", "color-not-in-list" or
    "edge-conflict" when invalid; ``witness`` is the offending vertex id
    or edge pair.
    """

    valid: bool
    reason: str = ""
    witness: int | tuple[int, int] | None = None


def verify_list_coloring(
    g: Digraph,
    lists: Sequence[AbstractSet[int]],
    coloring: Mapping[int, int],
) -> ColoringReport:
    """Check that a coloring is proper and drawn from the given lists.

    Violations are reported in a fixed order: missing vertices first,
    then colors outside their list (ascending vertex), then conflicting
    edges (ascending pair).
    """
    if len(lists) != g.num_vertices:
        raise ValueError(
            f"expected {g.num_vertices} color lists, got {len(lists)}"
        )
    for v in range(g.num_vertices):
        if v not in coloring:
            return ColoringReport(False, "uncolored-vertex", v)
    for v in range(g.num_vertices):
        if coloring[v] not in lists[v]:
            return ColoringReport(False, "color-not-in-list", v)
    for u, vs in enumerate(g.succ):
        for v in sorted(vs):
            if coloring[u] == coloring[v]:
                return ColoringReport(False, "edge-conflict", (u, v))
    return ColoringReport(True)


def _ints(tokens: list[str]) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"digraph text contains a non-integer token: {exc}") from None


def parse_digraph(text: str, max_vertices: int = MAX_VERTICES) -> Digraph:
    """Parse the plain-text digraph format: "n m" then m lines "u v".

    The header is read first.  A header of more than ``max_vertices``
    vertices, or of more than ``MAX_EDGES`` edges, is refused before the
    edges are read.  Faults are reported in text order: a missing or
    non-integer header, the two caps, a non-integer edge token, an edge
    count that differs from the header's, then the first edge that
    :func:`make_digraph` refuses.
    """
    tokens = text.split(maxsplit=2)
    if len(tokens) < 2:
        raise ValueError("digraph text needs a header line 'n m'")
    n, m = _ints(tokens[:2])
    if n > max_vertices:
        raise ValueError(
            f"header declares {n} vertices, above the limit of {max_vertices}"
        )
    if m > MAX_EDGES:
        raise ValueError(f"header declares {m} edges, above the limit of {MAX_EDGES}")
    values = _ints(tokens[2].split() if len(tokens) > 2 else [])
    if len(values) != 2 * m:
        raise ValueError(f"header declares {m} edges but {len(values)} ints follow")
    pairs = iter(values)
    return make_digraph(n, zip(pairs, pairs))


def format_digraph(g: Digraph) -> str:
    """Serialize to the plain-text format, edges sorted lexicographically.

    The text is joined from one string per vertex, not one per edge.
    """
    parts = [f"{g.num_vertices} {g.num_edges}\n"]
    parts.extend(
        "".join(f"{u} {v}\n" for v in sorted(vs)) for u, vs in enumerate(g.succ)
    )
    return "".join(parts)
