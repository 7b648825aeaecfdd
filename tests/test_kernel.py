from itertools import chain, combinations

import pytest
from hypothesis import given, settings

from dinitz import (
    build_square_orientation,
    find_kernel_bruteforce,
    has_property_x,
    is_independent,
    is_kernel,
    make_digraph,
)
from dinitz.kernel import _is_kernel_mask

from strategies import digraphs, digraphs_with_subsets


def cycle(k):
    return make_digraph(k, [(i, (i + 1) % k) for i in range(k)])


def kernel_naive(g, s, s_prime):
    """Definition check with plain sets and explicit edge scans.

    Independent re-implementation used as the oracle for the bitmask
    fast path: no shared code beyond the graph's edge list.
    """
    s, s_prime = set(s), set(s_prime)
    for u, v in g.edges:
        if u in s_prime and v in s_prime:
            return False
    for v in s - s_prime:
        if not any((v, w) in g.edges for w in s_prime):
            return False
    return True


def mask(vertices):
    return sum(1 << v for v in vertices)


def all_kernels_naive(g, s):
    members = sorted(s)
    subsets = chain.from_iterable(
        combinations(members, k) for k in range(len(members) + 1)
    )
    return [frozenset(sub) for sub in subsets if kernel_naive(g, s, sub)]


class TestIsKernel:
    def test_singleton_is_its_own_kernel(self):
        g = make_digraph(1, [])
        assert is_kernel(g, {0}, {0})

    def test_square_n2_diagonal_kernel(self):
        # the n=2 orientation is the 4-cycle (0,0)->(0,1)->(1,1)->(1,0)->(0,0)
        g = build_square_orientation(2)
        assert is_kernel(g, {0, 1, 2, 3}, {0, 3})

    def test_triangle_single_vertex_fails(self):
        g = cycle(3)
        assert not is_kernel(g, {0, 1, 2}, {0})

    def test_dependent_subset_fails(self):
        g = make_digraph(2, [(0, 1)])
        assert not is_kernel(g, {0, 1}, {0, 1})

    def test_empty_kernel_of_empty_set(self):
        assert is_kernel(cycle(3), set(), set())

    def test_containment_violation(self):
        with pytest.raises(ValueError):
            is_kernel(cycle(3), {0}, {1})

    @given(digraphs_with_subsets(max_vertices=6))
    @settings(max_examples=60)
    def test_agrees_with_naive_definition(self, gs):
        g, s = gs
        members = sorted(s)
        for sub in chain.from_iterable(
            combinations(members, k) for k in range(len(members) + 1)
        ):
            assert is_kernel(g, s, sub) == kernel_naive(g, s, sub)


class TestFindKernelBruteforce:
    def test_empty_set(self):
        assert find_kernel_bruteforce(cycle(3), set()) == frozenset()

    def test_single_edge(self):
        g = make_digraph(2, [(0, 1)])
        assert find_kernel_bruteforce(g, {0, 1}) == {1}

    def test_triangle_has_none(self):
        assert find_kernel_bruteforce(cycle(3), {0, 1, 2}) is None

    def test_cap_enforced(self):
        g = make_digraph(5, [])
        with pytest.raises(ValueError):
            find_kernel_bruteforce(g, range(5), cap=4)

    def test_returns_smallest_bitmask(self):
        # the 4-cycle has kernels {0,2} (mask 5) and {1,3} (mask 10)
        assert find_kernel_bruteforce(cycle(4), range(4)) == {0, 2}

    def test_isolated_pair_needs_both(self):
        # no edges means nothing can be dominated: the only kernel is s itself
        g = make_digraph(2, [])
        assert find_kernel_bruteforce(g, {0, 1}) == {0, 1}

    @given(digraphs_with_subsets())
    def test_sound(self, gs):
        g, s = gs
        found = find_kernel_bruteforce(g, s)
        if found is not None:
            assert is_kernel(g, s, found)

    @given(digraphs_with_subsets(max_vertices=7))
    @settings(max_examples=60)
    def test_complete_against_naive_enumeration(self, gs):
        g, s = gs
        found = find_kernel_bruteforce(g, s)
        naive = all_kernels_naive(g, s)
        assert (found is None) == (not naive)
        if found is not None:
            assert found == min(naive, key=mask)


class TestQueriesOnALargeGraph:
    """A query on a few vertices of a large graph builds no bitmask of the
    whole graph.  Each vertex's masks are as wide as its highest neighbour
    id, so a star of 2**18 vertices needs about 8.6 GB of them."""

    @pytest.mark.parametrize(
        "query, expected",
        [
            (lambda g, last: is_kernel(g, [0, 1, last], [last]), True),
            (lambda g, last: is_independent(g, [0, 1, last]), False),
            (lambda g, last: find_kernel_bruteforce(g, [0, 1, last]), {4095}),
        ],
        ids=["is_kernel", "is_independent", "find_kernel_bruteforce"],
    )
    def test_leaves_the_whole_graph_masks_unbuilt(self, query, expected):
        n = 1 << 12
        star = make_digraph(n, [(v, n - 1) for v in range(n - 1)])
        assert query(star, n - 1) == expected
        assert "out_masks" not in star.__dict__
        assert "adj_masks" not in star.__dict__


class TestCycleKernels:
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_odd_cycles_have_no_full_kernel(self, k):
        assert find_kernel_bruteforce(cycle(k), range(k)) is None

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_even_cycles_have_exactly_the_two_alternating_kernels(self, k):
        g = cycle(k)
        kernels = all_kernels_naive(g, range(k))
        evens = frozenset(range(0, k, 2))
        odds = frozenset(range(1, k, 2))
        assert sorted(kernels, key=sorted) == sorted([evens, odds], key=sorted)


class TestHasPropertyX:
    def test_single_vertex_holds(self):
        report = has_property_x(make_digraph(1, []))
        assert report.holds
        assert report.witness is None
        assert report.subsets_checked == 2

    def test_empty_graph_holds(self):
        report = has_property_x(make_digraph(0, []))
        assert report.holds
        assert report.subsets_checked == 1

    def test_triangle_fails_with_full_witness(self):
        report = has_property_x(cycle(3))
        assert not report.holds
        assert report.witness == {0, 1, 2}
        assert report.subsets_checked == 8

    def test_square_n2_holds_on_all_16_subsets(self):
        report = has_property_x(build_square_orientation(2))
        assert report.holds
        assert report.subsets_checked == 16

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            has_property_x(make_digraph(21, []), cap=20)

    def test_walks_each_subset_down_from_itself(self, monkeypatch):
        # Every subset of an edgeless graph is its own and only kernel, so
        # a downward walk checks one candidate per subset: 2**10 checks,
        # against 3**10 for a walk upward from the empty set.
        calls = []

        def counting(*args):
            calls.append(args)
            return _is_kernel_mask(*args)

        monkeypatch.setattr("dinitz.kernel._is_kernel_mask", counting)
        assert has_property_x(make_digraph(10, [])).holds
        assert len(calls) == 2 ** 10

    @given(digraphs(max_vertices=6))
    @settings(max_examples=60)
    def test_failure_witness_is_kernel_free(self, g):
        report = has_property_x(g)
        if not report.holds:
            assert find_kernel_bruteforce(g, report.witness) is None
            assert not all_kernels_naive(g, report.witness)
