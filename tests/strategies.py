"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from dinitz import Digraph, make_digraph


@st.composite
def digraphs(draw, max_vertices: int = 8) -> Digraph:
    """Random orientations of random simple graphs.

    Each unordered vertex pair independently gets no edge or one of the
    two directions, so the orientation invariants hold by construction.
    """
    n = draw(st.integers(0, max_vertices))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            pick = draw(st.sampled_from(["none", "uv", "vu"]))
            if pick == "uv":
                edges.append((u, v))
            elif pick == "vu":
                edges.append((v, u))
    return make_digraph(n, edges)


@st.composite
def digraphs_with_subsets(draw, max_vertices: int = 8):
    g = draw(digraphs(max_vertices))
    members = draw(st.sets(st.integers(0, max(g.num_vertices - 1, 0)))
                   if g.num_vertices else st.just(set()))
    return g, frozenset(members)


@st.composite
def graphs_with_scattered_subsets(draw, max_vertices: int = 40, max_members: int = 8):
    """Graphs of up to ``max_vertices`` vertices with a subset of at most
    ``max_members`` ids drawn from the whole range, so they are rarely
    contiguous.  Each pair in the subset gets no edge or one of the two
    directions, as in :func:`digraphs`; random edges on the whole range,
    into, out of and beside the subset, follow."""
    n = draw(st.integers(1, max_vertices))
    members = sorted(draw(st.sets(st.integers(0, n - 1), max_size=max_members)))
    oriented = {}
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            edge = draw(st.sampled_from([None, (u, v), (v, u)]))
            if edge:
                oriented[frozenset(edge)] = edge
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if u != v:
            oriented.setdefault(frozenset((u, v)), (u, v))
    return make_digraph(n, oriented.values()), frozenset(members)
