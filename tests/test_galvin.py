import gc
import random
import sys
import tracemalloc
from itertools import chain, combinations, count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dinitz import (
    ColorPass,
    DinitzInstance,
    KernelOracleError,
    LatinReport,
    UndersizedListError,
    build_square_orientation,
    deferred_acceptance,
    enumerate_stable_matchings,
    find_kernel_bruteforce,
    is_kernel,
    is_square_kernel,
    latin_value,
    list_color_with_kernels,
    make_digraph,
    outdegree,
    solve_dinitz,
    square_kernel_oracle,
    verify_generalized_latin,
    verify_list_coloring,
    vertex_to_cell,
)
from dinitz import galvin
from dinitz.matching import PreferenceProfile


def square_profile(n, cells):
    """The preference market of a cell subset, built from first principles."""
    allowed = frozenset(cells)
    row_rank = {(r, c): n - 1 - (r + c) % n for r, c in allowed}
    col_rank = {(r, c): (r + c) % n for r, c in allowed}
    return PreferenceProfile(n, n, allowed, row_rank, col_rank)


def profile_oracle(n, s):
    """The stable-matching oracle built on a validated PreferenceProfile
    and the generic deferred_acceptance: the reference for the direct one."""
    matched = deferred_acceptance(square_profile(n, [divmod(v, n) for v in s]))
    return frozenset(r * n + c for r, c in matched)


def kernel_variants(n, s):
    """The oracle's kernel of s, and every set one cell of s away from it."""
    k = square_kernel_oracle(n, s)
    return [k] + [k ^ {v} for v in sorted(s)]


def generic_solve(inst, oracle, **kwargs):
    """solve_dinitz's reference: the generic coloring loop on the
    materialised orientation, asking ``oracle(n, candidates)``."""
    n = inst.n
    flat = [inst.lists[v // n][v % n] for v in range(n * n)]
    coloring = list_color_with_kernels(
        build_square_orientation(n), flat, lambda _g, s: oracle(n, s), **kwargs
    )
    return [[coloring[r * n + c] for c in range(n)] for r in range(n)]


@st.composite
def square_kernel_cases(draw, max_n=8):
    """(n, s, k): a cell subset and a candidate kernel that is the oracle's
    answer, one cell away from it, or an arbitrary subset of s."""
    n = draw(st.integers(1, max_n))
    s = frozenset(draw(st.sets(st.integers(0, n * n - 1))))
    k = square_kernel_oracle(n, s)
    how = draw(st.sampled_from(["oracle", "flip", "any"]))
    if s and how == "flip":
        k = k ^ {draw(st.sampled_from(sorted(s)))}
    elif s and how == "any":
        k = frozenset(draw(st.sets(st.sampled_from(sorted(s)))))
    return n, s, k


@st.composite
def unsorted_square_kernel_cases(draw):
    """(n, s, k) of square_kernel_cases with s an unsorted list in which
    some cells repeat, and k an unsorted list that may repeat too."""
    n, s, k = draw(square_kernel_cases())
    rng = draw(st.randoms(use_true_random=False))
    s_list = sorted(s) + [v for v in sorted(s) if rng.random() < 0.3]
    k_list = sorted(k) + [v for v in sorted(k) if rng.random() < 0.3]
    rng.shuffle(s_list)
    rng.shuffle(k_list)
    return n, s_list, k_list


def reference_is_square_kernel(n, s, k):
    """is_kernel on the materialised orientation, False for a k outside s
    (where is_kernel raises instead)."""
    return set(k) <= set(s) and is_kernel(build_square_orientation(n), s, k)


@st.composite
def square_instances(draw, max_n=6, wide=False):
    """Interned instances over small universes, lists of n or a few more.
    ``wide`` universes reach n * n colors, so that the passes run through
    several of solve_dinitz's windows."""
    n = draw(st.integers(0, max_n))
    universe = draw(st.integers(max(n, 1), max(n * n if wide else 2 * n + 2, 1)))
    rng = draw(st.randoms(use_true_random=False))
    rows = [
        [rng.sample(range(universe), rng.randint(n, min(universe, n + 2)))
         for _ in range(n)]
        for _ in range(n)
    ]
    return DinitzInstance.from_labels(rows)


def windows_reached(inst, trace):
    """How many of solve_dinitz's windows of colors the passes of
    ``trace`` reach: the first holds n // 2 colors (at least 1), each
    next one twice as many as the last."""
    last = inst._colors.index(trace[-1].color) if trace else -1
    reached, end, size = 0, 0, max(inst.n // 2, 1)
    while end <= last:
        reached, end, size = reached + 1, end + size, 2 * size
    return reached


def lie_on_call(honest, lie, call):
    """An oracle that answers ``honest`` but for ``lie(kernel, s)`` on
    its ``call``-th call, counting from 0."""
    calls = count()

    def oracle(n, s):
        k = honest(n, s)
        return lie(k, s) if next(calls) == call else k

    return oracle


LIES = {
    "none": lambda k, s: None,
    "empty": lambda k, s: frozenset(),
    "everyone": lambda k, s: frozenset(s),  # not independent
    "outsider": lambda k, s: k | {99},  # not a candidate
    "short": lambda k, s: k - {min(k)},  # leaves a candidate undominated
}


def reference_from_labels(rows):
    """from_labels as one Python step per label: the reference the
    C-level passes must match id for id."""
    n = len(rows)
    table = {}
    interned = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
        interned_row = []
        for j, cell in enumerate(row):
            labs = sorted(cell) if isinstance(cell, (set, frozenset)) else list(cell)
            if not labs:
                raise ValueError(f"cell ({i}, {j}) has an empty color list")
            for lab in labs:
                table.setdefault(lab, len(table))
            interned_row.append(frozenset(table[lab] for lab in labs))
        interned.append(tuple(interned_row))
    labels = tuple(sorted(table, key=table.__getitem__))
    return DinitzInstance(n, tuple(interned), labels)


# 1, True and 1.0 are one label to Python; whichever comes first names it.
LABELS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["a", "b", "c1", ""]),
    st.sampled_from([True, 1.0]),
)


@st.composite
def label_rows(draw, max_n=4):
    """(n x n cells as plain data, cell kinds): labels may repeat within a
    cell.  Set cells hold one type only, so that sorting them works."""
    n = draw(st.integers(0, max_n))
    cells, kinds = [], []
    for _ in range(n * n):
        kind = draw(st.sampled_from(["list", "tuple", "generator", "set", "frozenset"]))
        if kind in ("set", "frozenset"):
            labs = draw(st.one_of(
                st.lists(st.integers(0, 12), min_size=1, max_size=5),
                st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
            ))
        else:
            labs = draw(st.lists(LABELS, min_size=1, max_size=5))
        cells.append(labs)
        kinds.append(kind)
    return n, cells, kinds


def build_rows(n, cells, kinds):
    """Fresh row objects for from_labels; generator cells are used up."""
    make = {"list": list, "tuple": tuple, "generator": lambda c: (x for x in c),
            "set": set, "frozenset": frozenset}
    flat = [make[k](c) for c, k in zip(cells, kinds)]
    return [flat[r * n : (r + 1) * n] for r in range(n)]


class OnePass:
    """Rows that can be walked once, with their number known up front: a
    caller that decodes rows as they are read hands them over this way."""

    def __init__(self, rows):
        self.n, self.rows = len(rows), iter(rows)

    def __len__(self):
        return self.n

    def __iter__(self):
        return self.rows


def reference_verify(inst, grid):
    """verify_generalized_latin as one Python step per cell: the
    reference for its C-level passes."""
    n = inst.n
    for i in range(n):
        if len(set(grid[i])) != n:
            return LatinReport(False, "row-repeat", row=i)
    for j in range(n):
        if len({grid[i][j] for i in range(n)}) != n:
            return LatinReport(False, "column-repeat", col=j)
    for i in range(n):
        for j in range(n):
            if grid[i][j] not in inst.lists[i][j]:
                return LatinReport(False, "not-in-list", row=i, col=j)
    return LatinReport(True)


class TestLatinValue:
    def test_top_left_is_zero(self):
        assert latin_value(0, 0, 3) == 0

    def test_second_row_starts_at_one(self):
        assert latin_value(1, 0, 3) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bottom_right_corner(self, n):
        assert latin_value(n - 1, n - 1, n) == n - 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rows_and_columns_are_permutations(self, n):
        for i in range(n):
            assert {latin_value(i, j, n) for j in range(n)} == set(range(n))
            assert {latin_value(j, i, n) for j in range(n)} == set(range(n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            latin_value(3, 0, 3)


class TestCellIndexMap:
    def test_row_major(self):
        assert vertex_to_cell(6, 4) == (1, 2)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_bijection(self, n):
        cells = [vertex_to_cell(v, n) for v in range(n * n)]
        assert sorted(cells) == [(r, c) for r in range(n) for c in range(n)]
        for v, (r, c) in enumerate(cells):
            assert r * n + c == v

    def test_range_checks(self):
        with pytest.raises(ValueError):
            vertex_to_cell(4, 2)
        with pytest.raises(ValueError):
            vertex_to_cell(-1, 2)


class TestSquareOrientation:
    def test_n0_and_n1_are_edgeless(self):
        assert build_square_orientation(0).num_vertices == 0
        g = build_square_orientation(1)
        assert g.num_vertices == 1
        assert g.edges == frozenset()

    def test_n2_is_the_directed_4_cycle(self):
        g = build_square_orientation(2)
        assert g.edges == {(0, 1), (1, 3), (3, 2), (2, 0)}

    def test_n3_counts(self):
        g = build_square_orientation(3)
        assert g.num_vertices == 9
        assert g.num_edges == 18
        assert all(outdegree(g, v) == 2 for v in range(9))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rook_adjacency_exactly_once(self, n):
        g = build_square_orientation(n)
        for u in range(n * n):
            for v in range(u + 1, n * n):
                ru, cu = divmod(u, n)
                rv, cv = divmod(v, n)
                rook = ru == rv or cu == cv
                present = ((u, v) in g.edges) + ((v, u) in g.edges)
                assert present == (1 if rook else 0)

    def test_rook_adjacency_sampled_large_n(self):
        n = 32
        g = build_square_orientation(n)
        rng = random.Random(n)
        for _ in range(2000):
            u = rng.randrange(n * n)
            v = rng.randrange(n * n)
            if u == v:
                continue
            ru, cu = divmod(u, n)
            rv, cv = divmod(v, n)
            rook = ru == rv or cu == cv
            present = (v in g.succ[u]) + (u in g.succ[v])
            assert present == (1 if rook else 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_fast_construction_matches_validated_path(self, n):
        # the orientation builder skips make_digraph; its output must be
        # exactly what the validating constructor accepts and produces
        g = build_square_orientation(n)
        assert make_digraph(n * n, sorted(g.edges)) == g

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_row_edges_ascend_column_edges_descend(self, n):
        g = build_square_orientation(n)
        for u, v in g.edges:
            ru, cu = divmod(u, n)
            rv, cv = divmod(v, n)
            if ru == rv:
                assert latin_value(ru, cu, n) < latin_value(rv, cv, n)
            else:
                assert cu == cv
                assert latin_value(ru, cu, n) > latin_value(rv, cv, n)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_smaller_to_larger_prose_reading(self, n):
        # independent reconstruction: walk every rook pair and point the
        # horizontal edge at the larger entry, the vertical at the smaller
        edges = set()
        for r in range(n):
            for c in range(n):
                for c2 in range(c + 1, n):
                    a, b = (r, c), (r, c2)
                    small, large = (
                        (a, b) if latin_value(*a, n) < latin_value(*b, n) else (b, a)
                    )
                    edges.add((small[0] * n + small[1], large[0] * n + large[1]))
                for r2 in range(r + 1, n):
                    a, b = (r, c), (r2, c)
                    small, large = (
                        (a, b) if latin_value(*a, n) < latin_value(*b, n) else (b, a)
                    )
                    edges.add((large[0] * n + large[1], small[0] * n + small[1]))
        assert build_square_orientation(n).edges == edges


class TestSquareKernelOracle:
    def test_single_cell(self):
        assert square_kernel_oracle(3, {4}) == {4}

    def test_n2_full_grid(self):
        assert square_kernel_oracle(2, {0, 1, 2, 3}) == {1, 2}

    def test_n2_row_pair_dominates_via_row_edge(self):
        g = build_square_orientation(2)
        result = square_kernel_oracle(2, {0, 1})
        assert result == {1}
        assert is_kernel(g, {0, 1}, result)

    def test_empty_subset(self):
        assert square_kernel_oracle(2, set()) == frozenset()

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            square_kernel_oracle(2, {4})

    @pytest.mark.parametrize("bad", [-1, 9, 99])
    def test_out_of_range_names_the_cell(self, bad):
        s = [5, 2, bad, 2, 0]
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for the 3x3"):
            square_kernel_oracle(3, s)
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for the 3x3"):
            is_square_kernel(3, s, [])

    @given(unsorted_square_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_kernel_for_every_input_form(self, case):
        n, s_list, _ = case
        expected = square_kernel_oracle(n, frozenset(s_list))
        assert square_kernel_oracle(n, s_list) == expected
        assert square_kernel_oracle(n, (v for v in s_list)) == expected
        assert square_kernel_oracle(n, sorted(set(s_list))) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_validity_small_n(self, n):
        g = build_square_orientation(n)
        cells = n * n
        for mask in range(1 << cells):
            s = frozenset(v for v in range(cells) if mask >> v & 1)
            result = square_kernel_oracle(n, s)
            assert is_kernel(g, s, result)
            assert find_kernel_bruteforce(g, s) is not None

    def test_sampled_validity_n4(self):
        g = build_square_orientation(4)
        for mask in range(0, 1 << 16, 97):
            s = frozenset(v for v in range(16) if mask >> v & 1)
            result = square_kernel_oracle(4, s)
            assert is_kernel(g, s, result)
            assert find_kernel_bruteforce(g, s) is not None

    def test_equals_profile_deferred_acceptance_on_every_subset_n4(self):
        for mask in range(1 << 16):
            s = frozenset(v for v in range(16) if mask >> v & 1)
            assert square_kernel_oracle(4, s) == profile_oracle(4, s)

    @given(square_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_profile_deferred_acceptance_random(self, case):
        n, s, _ = case
        assert square_kernel_oracle(n, s) == profile_oracle(n, s)

    @pytest.mark.parametrize("n", [1, 2])
    def test_kernels_equal_stable_matchings(self, n):
        # both directions of the equivalence, on every subset (n=3 runs in
        # the acceptance suite)
        g = build_square_orientation(n)
        cells = n * n
        for mask in range(1 << cells):
            s = sorted(v for v in range(cells) if mask >> v & 1)
            kernels = {
                frozenset(sub)
                for sub in chain.from_iterable(
                    combinations(s, k) for k in range(len(s) + 1)
                )
                if is_kernel(g, s, sub)
            }
            matchings = {
                frozenset(r * n + c for r, c in m)
                for m in enumerate_stable_matchings(
                    square_profile(n, [divmod(v, n) for v in s])
                )
            }
            assert kernels == matchings


class TestIsSquareKernel:
    def test_agrees_with_is_kernel_on_every_subset_n4(self):
        g = build_square_orientation(4)
        for mask in range(1 << 16):
            s = frozenset(v for v in range(16) if mask >> v & 1)
            for k in kernel_variants(4, s):
                assert is_square_kernel(4, s, k) == is_kernel(g, s, k), (s, k)

    @given(square_kernel_cases())
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_is_kernel_random(self, case):
        n, s, k = case
        assert is_square_kernel(n, s, k) == is_kernel(build_square_orientation(n), s, k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_is_kernel_on_every_pair_small_n(self, n):
        # every answer inside s at n = 3, every answer in the grid at n <= 2
        subsets = [
            frozenset(v for v in range(n * n) if mask >> v & 1)
            for mask in range(1 << n * n)
        ]
        for s in subsets:
            for k in subsets if n < 3 else [k for k in subsets if k <= s]:
                assert is_square_kernel(n, s, k) == reference_is_square_kernel(n, s, k)

    @given(unsorted_square_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_is_kernel_on_unsorted_repeated_cells(self, case):
        n, s, k = case
        assert is_square_kernel(n, s, k) == reference_is_square_kernel(n, s, k)

    @pytest.mark.parametrize(
        "outsider", [lambda n: -1, lambda n: n * n, lambda n: 99], ids=["-1", "n*n", "99"]
    )
    @given(case=square_kernel_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_is_kernel_on_out_of_range_answers(self, outsider, case):
        n, s, k = case
        k = k | {outsider(n)}
        assert not is_square_kernel(n, s, k)
        assert not reference_is_square_kernel(n, s, k)

    def test_cells_outside_the_subset_are_no_kernel(self):
        assert is_square_kernel(2, {0, 1}, {1})
        assert not is_square_kernel(2, {0, 1}, {1, 2})

    def test_out_of_range_cell(self):
        with pytest.raises(ValueError):
            is_square_kernel(2, {4}, set())


class TestListColorWithKernels:
    def test_single_vertex(self):
        g = make_digraph(1, [])
        assert list_color_with_kernels(g, [{7}], find_kernel_bruteforce) == {0: 7}

    def test_n2_square_shared_lists(self):
        g = build_square_orientation(2)
        trace = []
        coloring = list_color_with_kernels(
            g,
            [{1, 2}] * 4,
            lambda _g, s: square_kernel_oracle(2, s),
            trace=trace,
        )
        assert coloring == {0: 2, 1: 1, 2: 1, 3: 2}
        assert trace == [
            ColorPass(1, frozenset({0, 1, 2, 3}), frozenset({1, 2})),
            ColorPass(2, frozenset({0, 3}), frozenset({0, 3})),
        ]

    def test_n2_square_disjoint_lists(self):
        g = build_square_orientation(2)
        coloring = list_color_with_kernels(
            g,
            [{1, 2}, {3, 4}, {5, 6}, {7, 8}],
            lambda _g, s: square_kernel_oracle(2, s),
        )
        assert coloring == {0: 1, 1: 3, 2: 5, 3: 7}

    def test_generic_graph_with_bruteforce_oracle(self):
        # a path 0 -> 1 -> 2 with minimal lists
        g = make_digraph(3, [(0, 1), (1, 2)])
        lists = [{0, 1}, {0, 1}, {0}]
        coloring = list_color_with_kernels(g, lists, find_kernel_bruteforce)
        assert verify_list_coloring(g, lists, coloring).valid

    def test_undersized_list_rejected_with_witness(self):
        g = build_square_orientation(2)
        with pytest.raises(ValueError, match="vertex 2"):
            list_color_with_kernels(
                g, [{1, 2}, {1, 2}, {1}, {1, 2}], find_kernel_bruteforce
            )

    def test_oracle_without_kernel_aborts_with_state(self):
        g = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(KernelOracleError) as exc_info:
            list_color_with_kernels(g, [{9, 10}] * 3, find_kernel_bruteforce)
        err = exc_info.value
        assert err.color == 9
        assert err.candidates == {0, 1, 2}
        assert err.returned is None
        assert err.residual_lists[0] == {9, 10}

    def test_lying_oracle_detected(self):
        g = build_square_orientation(2)
        with pytest.raises(KernelOracleError):
            list_color_with_kernels(g, [{1, 2}] * 4, lambda _g, s: frozenset())

    def test_checked_mode_accepts_honest_runs(self):
        g = build_square_orientation(3)
        coloring = list_color_with_kernels(
            g,
            [{0, 1, 2}] * 9,
            lambda _g, s: square_kernel_oracle(3, s),
            checked=True,
        )
        assert verify_list_coloring(g, [{0, 1, 2}] * 9, coloring).valid

    def test_colors_drawn_from_original_lists(self):
        rng = random.Random(5)
        g = build_square_orientation(3)
        lists = [set(rng.sample(range(9), 3)) for _ in range(9)]
        coloring = list_color_with_kernels(
            g, lists, lambda _g, s: square_kernel_oracle(3, s)
        )
        assert verify_list_coloring(g, lists, coloring).valid


class TestDinitzInstance:
    def test_interning_is_first_appearance_row_major(self):
        inst = DinitzInstance.from_labels([[["b", "a"], ["c"]], [["a"], ["d", "b"]]])
        assert inst.labels == ("b", "a", "c", "d")
        assert inst.lists[0][0] == {0, 1}
        assert inst.lists[1][1] == {3, 0}

    def test_sets_intern_in_sorted_order(self):
        inst = DinitzInstance.from_labels([[{"z", "a"}]])
        assert inst.labels == ("a", "z")

    def test_duplicates_collapse(self):
        inst = DinitzInstance.from_labels([[["a", "a", "b"]]])
        assert inst.lists[0][0] == {0, 1}

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match=r"cell \(0, 1\)"):
            DinitzInstance.from_labels([[["a"], []], [["b"], ["c"]]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            DinitzInstance.from_labels([[["a"], ["b"]], [["c"]]])

    def test_label_grid_round_trip(self):
        inst = DinitzInstance.from_labels([[["x", "y"], ["x", "y"]]] * 2)
        assert inst.label_grid([[0, 1], [1, 0]]) == [["x", "y"], ["y", "x"]]

    @given(label_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, case):
        want = reference_from_labels(build_rows(*case))
        for rows in (build_rows(*case), OnePass(build_rows(*case))):
            got = DinitzInstance.from_labels(rows)
            assert got == want
            assert list(map(type, got.labels)) == list(map(type, want.labels))

    def test_faults_raise_in_row_major_order(self):
        """Each row is interned before the next is read: an unhashable
        label in row 0 raises before a ragged row 1 is seen, as in the
        reference loop."""
        rows = [[["a", ["x"]], ["b"]], [["c"]]]
        with pytest.raises(TypeError):
            reference_from_labels(rows)
        with pytest.raises(TypeError):
            DinitzInstance.from_labels(rows)
        with pytest.raises(TypeError):
            DinitzInstance.from_labels(OnePass(rows))

    def test_one_true_and_one_point_zero_collapse_into_the_first(self):
        inst = DinitzInstance.from_labels([[[True, 1, 1.0, 2], (1.0, 2, True)]] * 2)
        assert inst.labels == (True, 2)
        assert type(inst.labels[0]) is bool
        assert inst.lists[0][0] == inst.lists[1][1] == {0, 1}

    @pytest.mark.parametrize("k", [1, 5, 100, 300])
    def test_cell_sets_are_sized_for_their_cell(self, k):
        inst = DinitzInstance.from_labels([[[f"c{i}" for i in range(k)]]])
        presized = frozenset(dict.fromkeys(range(k)))
        assert sys.getsizeof(inst.lists[0][0]) <= sys.getsizeof(presized)

    def test_solved_ids_are_the_objects_the_cells_hold(self):
        # Past CPython's cached small ints (up to 256), equal ids are
        # distinct objects unless from_labels shares them.
        n = 7
        rows = [[[f"{r},{c},{k}" for k in range(n)] for c in range(n)] for r in range(n)]
        inst = DinitzInstance.from_labels(rows)
        assert len(inst.labels) > 256
        grid = solve_dinitz(inst)
        assert max(map(max, grid)) > 256
        for row, cells in zip(grid, inst.lists):
            for color, cell in zip(row, cells):
                assert any(color is held for held in cell), color

    def test_intern_grid_unknown_labels_stay_distinct(self):
        inst = DinitzInstance.from_labels([[["a", "b"], ["a", "b"]]] * 2)
        grid = inst.intern_grid([["a", "zz"], ["zz", "ww"]])
        assert grid[0][0] == 0
        assert grid[0][1] == grid[1][0] < 0
        assert grid[1][1] < 0
        assert grid[1][1] != grid[0][1]


class TestFromLabelsCollector:
    """from_labels interns with the cyclic collector paused and gives the
    caller back the setting it had, on a return and on each raise."""

    @pytest.fixture(autouse=True)
    def keep_setting(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[["a"], ["b"]], [["b"], ["a"]]], None),
            ([[["a"], ["b"]], [["c"]]], ValueError),
            ([[["a"], []], [["b"], ["c"]]], ValueError),
            ([[["a", ["x"]], ["b"]], [["c"], ["d"]]], TypeError),
        ],
        ids=["returns", "short-row", "empty-cell", "unhashable-label"],
    )
    def test_caller_setting_is_restored(self, rows, error, enabled):
        (gc.enable if enabled else gc.disable)()
        if error is None:
            DinitzInstance.from_labels(rows)
        else:
            with pytest.raises(error):
                DinitzInstance.from_labels(rows)
        assert gc.isenabled() is enabled

    def test_is_paused_while_rows_are_read(self):
        grid = [[["a"], ["b"]], [["b"], ["a"]]]
        seen = []

        def rows():
            for row in grid:
                seen.append(gc.isenabled())
                yield row
            seen.append(gc.isenabled())

        source = OnePass(grid)
        source.rows = rows()
        gc.enable()
        inst = DinitzInstance.from_labels(source)
        assert seen == [False, False, False]
        assert gc.isenabled()
        assert inst == DinitzInstance.from_labels(grid)


class TestRecords:
    """ColorPass, LatinReport and DinitzInstance: read-only fields, a repr
    that names them, and equality and hash by fields within one class."""

    RECORDS = [
        (ColorPass(1, frozenset({1}), frozenset()),
         "ColorPass(color=1, candidates=frozenset({1}), chosen=frozenset())"),
        (LatinReport(False, "row-repeat", row=3),
         "LatinReport(valid=False, reason='row-repeat', row=3, col=None)"),
        (LatinReport(True), "LatinReport(valid=True, reason='', row=None, col=None)"),
        (DinitzInstance.from_labels([[["a"]]]),
         "DinitzInstance(n=1, lists=((frozenset({0}),),), labels=('a',))"),
    ]

    @pytest.mark.parametrize("record, text", RECORDS)
    def test_repr_names_every_field(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record, _", RECORDS)
    def test_equality_and_hash_go_by_fields(self, record, _):
        fields = tuple(getattr(record, name) for name in record.__match_args__)
        twin = type(record)(*fields)
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(fields)
        assert record != fields
        assert type("Subclass", (type(record),), {})(*fields) != record

    @pytest.mark.parametrize("record, _", RECORDS)
    def test_fields_are_read_only(self, record, _):
        for name in (*record.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, record.__match_args__[0])

    def test_latin_report_defaults_and_keywords(self):
        assert LatinReport(valid=True) == LatinReport(True, "", None, None)
        assert LatinReport(False, "not-in-list", col=2, row=1).col == 2


class TestSolveDinitz:
    def test_n0(self):
        assert solve_dinitz(DinitzInstance(0, (), ())) == []

    def test_n1(self):
        inst = DinitzInstance.from_labels([[["x"]]])
        grid = solve_dinitz(inst)
        assert inst.label_grid(grid) == [["x"]]

    def test_n2_shared_lists(self):
        inst = DinitzInstance.from_labels([[[1, 2], [1, 2]], [[1, 2], [1, 2]]])
        grid = solve_dinitz(inst)
        assert inst.label_grid(grid) == [[2, 1], [1, 2]]

    def test_n3_identical_lists_yields_latin_square(self):
        inst = DinitzInstance.from_labels([[[0, 1, 2]] * 3] * 3)
        grid = solve_dinitz(inst)
        assert verify_generalized_latin(inst, grid).valid
        for i in range(3):
            assert {grid[i][j] for j in range(3)} == {0, 1, 2}
            assert {grid[j][i] for j in range(3)} == {0, 1, 2}

    def test_undersized_list_names_the_cell(self):
        rows = [[["a", "b"], ["a", "b"]], [["a"], ["a", "b"]]]
        with pytest.raises(UndersizedListError) as exc_info:
            solve_dinitz(DinitzInstance.from_labels(rows))
        assert exc_info.value.cell == (1, 0)

    def test_oversized_lists_accepted(self):
        rng = random.Random(23)
        rows = [[rng.sample(range(20), 6) for _ in range(3)] for _ in range(3)]
        inst = DinitzInstance.from_labels(rows)
        assert verify_generalized_latin(inst, solve_dinitz(inst)).valid

    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_verify(self, n, rng):
        rows = [
            [rng.sample(range(3 * n), n) for _ in range(n)] for _ in range(n)
        ]
        inst = DinitzInstance.from_labels(rows)
        grid = solve_dinitz(inst, checked=True)
        assert verify_generalized_latin(inst, grid).valid

    @given(square_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_loop_with_profile_oracle(self, inst):
        trace, ref_trace = [], []
        grid = solve_dinitz(inst, checked=True, trace=trace)
        assert grid == generic_solve(inst, profile_oracle, checked=True, trace=ref_trace)
        assert trace == ref_trace

    @given(square_instances())
    @settings(max_examples=100, deadline=None)
    def test_oracle_is_called_once_per_pass_on_its_candidates(self, inst):
        # bench/tracer.py counts galvin.passes and galvin.candidates from
        # these calls and compares them with the pinned counts.
        calls = []
        honest = galvin.square_kernel_oracle

        def oracle(n, s):
            calls.append(s)
            return honest(n, s)

        trace = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galvin, "square_kernel_oracle", oracle)
            solve_dinitz(inst, trace=trace)
        assert len(calls) == len(trace)
        for s, page in zip(calls, trace):
            assert len(s) == len(page.candidates)
            assert list(s) == sorted(page.candidates)

    @pytest.mark.parametrize("ids", [(3, 7, 40), (-5, 0, 2), (10**12, 1, -1), (0, 1, 3)])
    def test_directly_built_instance_with_any_ids(self, ids):
        rng = random.Random(sum(ids))
        cells = [frozenset(rng.sample(ids, rng.randint(2, 3))) for _ in range(4)]
        inst = DinitzInstance(2, ((cells[0], cells[1]), (cells[2], cells[3])), ())
        trace, ref_trace = [], []
        grid = solve_dinitz(inst, checked=True, trace=trace)
        assert grid == generic_solve(inst, profile_oracle, checked=True, trace=ref_trace)
        assert trace == ref_trace
        assert verify_generalized_latin(inst, grid).valid

    @given(square_instances(max_n=8, wide=True))
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_loop_across_windows(self, inst):
        trace, ref_trace = [], []
        grid = solve_dinitz(inst, checked=True, trace=trace)
        assert grid == generic_solve(inst, profile_oracle, checked=True, trace=ref_trace)
        assert trace == ref_trace

    @pytest.mark.parametrize("kind", [frozenset, tuple, set])
    @pytest.mark.parametrize("seed", range(4))
    def test_directly_built_instance_across_windows(self, kind, seed):
        """Negative, gapped and huge ids, in cells of any collection type,
        through several windows (at n = 4 they hold 2, 4 and 8 ids)."""
        n = 4
        ids = [-9, -4, -1, 0, 2, 3, 7, 12, 30, 10**12, 10**12 + 5, 2 * 10**12]
        rng = random.Random(seed)
        flat = [kind(rng.sample(ids, rng.randint(n, n + 1))) for _ in range(n * n)]
        inst = DinitzInstance(n, tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)), ())
        trace, ref_trace = [], []
        grid = solve_dinitz(inst, checked=True, trace=trace)
        assert grid == generic_solve(inst, profile_oracle, checked=True, trace=ref_trace)
        assert trace == ref_trace
        assert verify_generalized_latin(inst, grid).valid
        assert windows_reached(inst, trace) >= 3

    @given(square_instances(max_n=8, wide=True), st.sampled_from(sorted(LIES)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bad_answer_after_the_first_window_reports_generic_state(self, inst, lie, data):
        honest_trace = []
        solve_dinitz(inst, trace=honest_trace)
        later = [i for i, page in enumerate(honest_trace)
                 if inst._colors.index(page.color) >= max(inst.n // 2, 1)]
        assume(later)
        call = data.draw(st.sampled_from(later))
        page = honest_trace[call]
        # "everyone" is no lie when the candidates are independent
        assume(not reference_is_square_kernel(
            inst.n, page.candidates, LIES[lie](page.chosen, page.candidates) or ()
        ))
        honest = galvin.square_kernel_oracle
        with pytest.raises(KernelOracleError) as ref:
            generic_solve(inst, lie_on_call(honest, LIES[lie], call))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galvin, "square_kernel_oracle", lie_on_call(honest, LIES[lie], call))
            with pytest.raises(KernelOracleError) as got:
                solve_dinitz(inst)
        assert ref.value.color == page.color
        for attr in ("color", "candidates", "returned", "residual_lists"):
            assert getattr(got.value, attr) == getattr(ref.value, attr), attr

    def test_never_builds_the_orientation(self, monkeypatch):
        def refuse(n):
            raise AssertionError("solve_dinitz built the orientation")

        monkeypatch.setattr(galvin, "build_square_orientation", refuse)
        inst = DinitzInstance.from_labels([[[0, 1, 2]] * 3] * 3)
        assert verify_generalized_latin(inst, solve_dinitz(inst)).valid

    @pytest.mark.parametrize("lie", LIES.values(), ids=LIES.keys())
    def test_bad_oracle_answer_reports_generic_state(self, monkeypatch, lie):
        inst = DinitzInstance.from_labels([[[0, 1, 2, 3]] * 3] * 3)
        honest = galvin.square_kernel_oracle

        def oracle(n, s):  # honest on the first pass over all cells only
            k = honest(n, s)
            return k if len(s) == n * n else lie(k, s)

        with pytest.raises(KernelOracleError) as ref:
            generic_solve(inst, oracle)
        monkeypatch.setattr(galvin, "square_kernel_oracle", oracle)
        with pytest.raises(KernelOracleError) as got:
            solve_dinitz(inst)
        assert ref.value.color == 1
        for attr in ("color", "candidates", "returned", "residual_lists"):
            assert getattr(got.value, attr) == getattr(ref.value, attr), attr


def budget_rows(universe, n=40):
    """The n x n rows of the allocation budgets: lists of n colors drawn
    from a universe of ``universe``."""
    rng = random.Random(0)
    return [[rng.sample(range(universe), n) for _ in range(n)] for _ in range(n)]


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes above what was held when
    it began."""
    gc.collect()
    tracemalloc.start()
    try:
        above = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - above
    finally:
        tracemalloc.stop()


class TestSolveAllocationBudget:
    """solve_dinitz's tracemalloc peak above the instance, per list entry,
    at n = 40 (64,000 entries).  It files each window's colors only for
    the cells still uncolored, so neither case holds every entry in a
    bucket at once.  Measured on CPython 3.11: 6.1 B per entry for the
    Latin-square case, whose first window files half of every list, and
    1.8 for n * n colors, whose passes end at color 301 of 1,600; filing
    every entry up front read 10.5 and 11.8."""

    @pytest.mark.parametrize(
        "universe, bound", [(40, 7.5), (40 * 40, 2.5)], ids=["latin", "n-squared-colors"]
    )
    def test_peak_bytes_per_list_entry(self, universe, bound):
        n = 40
        inst = DinitzInstance.from_labels(budget_rows(universe, n))
        peak = traced_peak(lambda: solve_dinitz(inst))
        assert peak / n**3 <= bound, f"{peak / n**3:.2f} B per list entry"


class TestFromLabelsAllocationBudget:
    """from_labels' tracemalloc peak, the instance it returns included, per
    list entry, on TestSolveAllocationBudget's two instances.  Nearly all
    of it is the cells: a frozenset of 40 ids, with its 128-slot table, is
    2,264 bytes, or 56.6 B per entry.  Measured on CPython 3.11.7: 56.9 B per
    entry for the Latin-square case and 59.0 for n * n colors, whose
    label table and ids hold 1,600 entries against 40."""

    @pytest.mark.parametrize(
        "universe, bound", [(40, 62.0), (40 * 40, 64.0)], ids=["latin", "n-squared-colors"]
    )
    def test_peak_bytes_per_list_entry(self, universe, bound):
        n = 40
        rows = budget_rows(universe, n)
        peak = traced_peak(lambda: DinitzInstance.from_labels(rows))
        assert peak / n**3 <= bound, f"{peak / n**3:.2f} B per list entry"


class TestSquareSlack:
    def test_violation_names_the_cell(self, monkeypatch):
        # The same lying run through both loops: an empty "kernel" colors
        # nothing at n = 2 and strikes color 0 everywhere, so each cell
        # keeps one color against one uncolored successor.
        monkeypatch.setattr(galvin, "is_square_kernel", lambda n, s, k: True)
        monkeypatch.setattr(galvin, "is_kernel", lambda g, s, k: True)
        monkeypatch.setattr(galvin, "square_kernel_oracle", lambda n, s: frozenset())
        inst = DinitzInstance.from_labels([[[0, 1]] * 2] * 2)
        with pytest.raises(AssertionError) as got:
            solve_dinitz(inst, checked=True)
        with pytest.raises(AssertionError) as ref:
            generic_solve(inst, galvin.square_kernel_oracle, checked=True)
        assert "vertex 0 after color 0" in str(got.value)
        assert str(got.value) == str(ref.value)


class TestVerifyGeneralizedLatin:
    def setup_method(self):
        self.inst = DinitzInstance.from_labels([[[1, 2], [1, 2]], [[1, 2], [1, 2]]])

    def test_valid_grid(self):
        # interned: 1 -> 0, 2 -> 1, so [[2,1],[1,2]] is [[1,0],[0,1]]
        assert verify_generalized_latin(self.inst, [[1, 0], [0, 1]]).valid

    def test_row_repeat_wins(self):
        report = verify_generalized_latin(self.inst, [[0, 0], [1, 1]])
        assert not report.valid
        assert report.reason == "row-repeat"
        assert report.row == 0

    def test_column_repeat(self):
        report = verify_generalized_latin(self.inst, [[0, 1], [0, 1]])
        assert not report.valid
        assert report.reason == "column-repeat"
        assert report.col == 0

    def test_membership_violation(self):
        report = verify_generalized_latin(self.inst, [[9, 0], [0, 1]])
        assert not report.valid
        assert report.reason == "not-in-list"
        assert (report.row, report.col) == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_generalized_latin(self.inst, [[0, 1]])

    @given(square_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, inst, rng):
        n = inst.n
        grid = solve_dinitz(inst)
        for _ in range(rng.randint(0, 3) if n else 0):
            grid[rng.randrange(n)][rng.randrange(n)] = rng.randint(-1, len(inst.labels))
        assert verify_generalized_latin(inst, grid) == reference_verify(inst, grid)


class TestCheckConditionY:
    """Condition Y -- every list strictly larger than its vertex's
    outdegree -- as the precondition of list_color_with_kernels."""

    class Reached(Exception):
        pass

    def assert_holds(self, g, lists):
        """The precondition passes: the loop gets as far as the oracle."""

        def oracle(_g, _s):
            raise self.Reached

        with pytest.raises(self.Reached):
            list_color_with_kernels(g, lists, oracle)

    def test_isolated_vertex_with_one_color(self):
        g = make_digraph(1, [])
        self.assert_holds(g, [{5}])

    def test_tight_list_fails(self):
        g = make_digraph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match=r"^vertex 0: list size 2 must exceed"):
            list_color_with_kernels(g, [{1, 2}, {1}, {1}], find_kernel_bruteforce)

    @pytest.mark.parametrize("n", [1, 5, 20, 50])
    def test_square_orientation_with_n_sized_lists(self, n):
        g = build_square_orientation(n)
        lists = [set(range(n))] * (n * n)
        self.assert_holds(g, lists)
