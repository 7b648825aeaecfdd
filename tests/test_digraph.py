import pytest
from hypothesis import given

from dinitz import (
    BidirectionalEdgeError,
    SelfLoopError,
    VertexRangeError,
    build_square_orientation,
    format_digraph,
    induced_subgraph,
    is_independent,
    make_digraph,
    outdegree,
    parse_digraph,
    verify_list_coloring,
)

from dinitz.digraph import MAX_EDGES, MAX_VERTICES
from strategies import digraphs, digraphs_with_subsets


def cycle(k):
    return make_digraph(k, [(i, (i + 1) % k) for i in range(k)])


class TestConstruction:
    def test_single_vertex_no_edges(self):
        g = make_digraph(1, [])
        assert g.num_vertices == 1
        assert g.edges == frozenset()

    def test_directed_triangle(self):
        g = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.edges == {(0, 1), (1, 2), (2, 0)}

    def test_bidirectional_pair_rejected(self):
        with pytest.raises(BidirectionalEdgeError):
            make_digraph(2, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            make_digraph(2, [(1, 1)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(VertexRangeError):
            make_digraph(2, [(0, 2)])
        with pytest.raises(VertexRangeError):
            make_digraph(2, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(VertexRangeError):
            make_digraph(-1, [])

    def test_duplicate_edges_collapse_silently(self):
        g = make_digraph(2, [(0, 1), (0, 1), (0, 1)])
        assert g.edges == {(0, 1)}


class TestOutdegree:
    def test_triangle(self):
        g = cycle(3)
        assert outdegree(g, 0) == 1

    def test_isolated_vertex(self):
        g = make_digraph(3, [(0, 1)])
        assert outdegree(g, 2) == 0

    def test_square_orientation_n3(self):
        g = build_square_orientation(3)
        assert all(outdegree(g, v) == 2 for v in range(9))

    def test_range_check(self):
        with pytest.raises(VertexRangeError):
            outdegree(cycle(3), 3)


class TestInducedSubgraph:
    def test_full_set_is_identity(self):
        g = cycle(5)
        sub, relabel = induced_subgraph(g, range(5))
        assert relabel == {v: v for v in range(5)}
        assert sub.edges == g.edges

    def test_triangle_drops_edges(self):
        g = cycle(3)
        sub, relabel = induced_subgraph(g, {0, 1})
        assert sub.num_vertices == 2
        assert sub.edges == {(0, 1)}
        assert relabel == {0: 0, 1: 1}

    def test_square_n2_row_pair(self):
        # cells (0,0) and (0,1) of the n=2 grid: the single row edge survives
        g = build_square_orientation(2)
        sub, relabel = induced_subgraph(g, {0, 1})
        assert sub.edges == {(relabel[0], relabel[1])}

    def test_relabeling_is_dense_ascending(self):
        g = cycle(4)
        _, relabel = induced_subgraph(g, {3, 1})
        assert relabel == {1: 0, 3: 1}

    def test_member_out_of_range(self):
        with pytest.raises(VertexRangeError):
            induced_subgraph(cycle(3), {0, 5})

    @given(digraphs_with_subsets())
    def test_edge_preservation(self, gs):
        g, s = gs
        sub, relabel = induced_subgraph(g, s)
        expected = {
            (relabel[u], relabel[v]) for u, v in g.edges if u in s and v in s
        }
        assert sub.edges == expected

    @given(digraphs_with_subsets())
    def test_outdegree_monotone_under_removal(self, gs):
        g, s = gs
        sub, relabel = induced_subgraph(g, s)
        for old, new in relabel.items():
            assert outdegree(sub, new) <= outdegree(g, old)


class TestIsIndependent:
    def test_empty_set(self):
        assert is_independent(cycle(3), set())

    def test_edge_endpoints(self):
        assert not is_independent(cycle(3), {0, 1})

    def test_square_n2_diagonal(self):
        # (0,0) and (1,1) share no row or column
        g = build_square_orientation(2)
        assert is_independent(g, {0, 3})

    @given(digraphs_with_subsets())
    def test_direction_blind(self, gs):
        g, s = gs
        reversed_g = make_digraph(g.num_vertices, [(v, u) for u, v in g.edges])
        no_edge_inside = not any(u in s and v in s for u, v in g.edges)
        assert is_independent(g, s) == is_independent(reversed_g, s) == no_edge_inside


class TestVerifyListColoring:
    def test_single_vertex_valid(self):
        g = make_digraph(1, [])
        report = verify_list_coloring(g, [{5}], {0: 5})
        assert report.valid

    def test_edge_conflict(self):
        g = make_digraph(2, [(0, 1)])
        report = verify_list_coloring(g, [{2}, {2}], {0: 2, 1: 2})
        assert not report.valid
        assert report.reason == "edge-conflict"
        assert report.witness == (0, 1)

    def test_color_outside_list(self):
        g = make_digraph(1, [])
        report = verify_list_coloring(g, [{1, 2}], {0: 9})
        assert not report.valid
        assert report.reason == "color-not-in-list"
        assert report.witness == 0

    def test_incomplete_coloring_is_its_own_failure(self):
        g = make_digraph(2, [(0, 1)])
        report = verify_list_coloring(g, [{1}, {2}], {0: 1})
        assert not report.valid
        assert report.reason == "uncolored-vertex"
        assert report.witness == 1

    def test_list_count_mismatch(self):
        g = make_digraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            verify_list_coloring(g, [{1}], {0: 1, 1: 1})


class TestTextFormat:
    def test_round_trip(self):
        g = cycle(4)
        assert parse_digraph(format_digraph(g)) == g

    def test_format_is_sorted(self):
        g = make_digraph(3, [(2, 0), (0, 1)])
        assert format_digraph(g) == "3 2\n0 1\n2 0\n"

    def test_empty_graph(self):
        assert format_digraph(make_digraph(0, [])) == "0 0\n"
        assert parse_digraph("0 0\n").num_vertices == 0

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_digraph("2 2\n0 1\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            parse_digraph("2 one\n")

    @pytest.mark.parametrize(
        "text, args",
        [
            (f"{MAX_VERTICES + 1} 0\n", ()),  # the default limit
            ("4 1\n0 x\n", (3,)),  # a bad edge the limit must preempt
            ("4 0\n", (3,)),
        ],
    )
    def test_header_above_the_limit_rejected_before_building(
        self, text, args, monkeypatch
    ):
        def refuse(num_vertices, edges):
            raise AssertionError("make_digraph was called")

        monkeypatch.setattr("dinitz.digraph.make_digraph", refuse)
        limit = args[0] if args else MAX_VERTICES
        message = rf"declares {limit + 1} vertices, above the limit of {limit}$"
        with pytest.raises(ValueError, match=message):
            parse_digraph(text, *args)

    def test_header_at_the_limit_accepted(self):
        assert parse_digraph("3 1\n0 2\n", 3).edges == {(0, 2)}

    @pytest.mark.parametrize(
        "text",
        [f"4 {MAX_EDGES + 1}\n", f"4 {MAX_EDGES + 1}\n0 x\n", f"4 {10 ** 30}\n0 1\n"],
    )
    def test_edges_above_the_budget_rejected_before_the_body(self, text, monkeypatch):
        def refuse(num_vertices, edges):
            raise AssertionError("make_digraph was called")

        monkeypatch.setattr("dinitz.digraph.make_digraph", refuse)
        m = text.split()[1]
        message = rf"^header declares {m} edges, above the limit of {MAX_EDGES}$"
        with pytest.raises(ValueError, match=message):
            parse_digraph(text)

    def test_vertex_limit_is_checked_before_the_edge_budget(self):
        with pytest.raises(ValueError, match="declares 4 vertices"):
            parse_digraph(f"4 {MAX_EDGES + 1}\n", 3)

    def test_edges_at_the_budget_accepted(self, monkeypatch):
        monkeypatch.setattr("dinitz.digraph.MAX_EDGES", 2)
        assert parse_digraph("3 2\n0 1\n1 2\n").edges == {(0, 1), (1, 2)}
        with pytest.raises(ValueError, match="declares 3 edges, above the limit of 2$"):
            parse_digraph("3 3\n0 1\n1 2\n0 2\n")

    def test_invalid_edges_rejected(self):
        with pytest.raises(BidirectionalEdgeError):
            parse_digraph("2 2\n0 1\n1 0\n")

    @given(digraphs())
    def test_round_trip_random(self, g):
        assert parse_digraph(format_digraph(g)) == g
