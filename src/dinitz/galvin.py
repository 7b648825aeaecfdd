"""Galvin's algorithm for the Dinitz problem.

The pipeline: orient the rook's graph of the n x n grid by the cyclic
Latin square value (r + c) mod n -- row edges point toward larger
values, column edges toward smaller ones, so every cell has outdegree
n - 1 -- then repeatedly give one color to a kernel of the cells that
still want it.  Kernels of this orientation always exist and come from
Gale-Shapley stable matchings: rows propose preferring larger Latin
values, columns prefer smaller ones.

The grid solver materialises the orientation only for its optional
slack audit: edge directions, kernel checks and the matching market
are all row/column arithmetic on Latin values.  The generic coloring
loop works on any digraph whose vertex lists are larger than their
outdegrees, given any oracle that produces kernels of induced
subgraphs; ``find_kernel_bruteforce`` plugs in directly for small
arbitrary digraphs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import contains
from typing import AbstractSet, Callable, Hashable, Iterable, Iterator, Sequence

from .digraph import Digraph
from .kernel import is_kernel

__all__ = [
    "latin_value",
    "vertex_to_cell",
    "build_square_orientation",
    "square_kernel_oracle",
    "is_square_kernel",
    "list_color_with_kernels",
    "solve_dinitz",
    "verify_generalized_latin",
    "DinitzInstance",
    "ColorPass",
    "KernelOracle",
    "KernelOracleError",
    "UndersizedListError",
    "LatinReport",
]

KernelOracle = Callable[[Digraph, frozenset[int]], "frozenset[int] | None"]


class UndersizedListError(ValueError):
    """A cell's color list is smaller than the instance requires."""

    def __init__(self, row: int, col: int, size: int, needed: int):
        self.cell = (row, col)
        super().__init__(
            f"cell ({row}, {col}) has {size} colors but at least {needed} are required"
        )


class KernelOracleError(RuntimeError):
    """The kernel oracle returned something that is not a kernel.

    This signals either a broken oracle or a graph without the
    every-subset-has-a-kernel property; the residual solver state is
    attached for diagnosis.
    """

    def __init__(self, color, candidates, returned, residual_lists):
        self.color = color
        self.candidates = candidates
        self.returned = returned
        self.residual_lists = residual_lists
        super().__init__(
            f"oracle output {sorted(returned) if returned is not None else None} "
            f"is not a kernel of the {len(candidates)} candidates for color {color}"
        )


def latin_value(r: int, c: int, n: int) -> int:
    """Entry of the cyclic n x n Latin square at 0-based cell (r, c)."""
    if not (0 <= r < n and 0 <= c < n):
        raise ValueError(f"cell ({r}, {c}) out of range for n={n}")
    return (r + c) % n


def vertex_to_cell(v: int, n: int) -> tuple[int, int]:
    """The (row, column) of row-major cell id v = row * n + column."""
    if not 0 <= v < n * n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    return divmod(v, n)


def build_square_orientation(n: int) -> Digraph:
    """Orient the rook's graph of the n x n grid by Latin value.

    Within a row, edges run from smaller to larger Latin values; within
    a column, from larger to smaller.  Every rook-adjacent pair gets
    exactly one direction and every vertex ends up with outdegree n - 1.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    # id of the cell in row r (resp. column c) holding Latin value t
    row_ids = [[r * n + (t - r) % n for t in range(n)] for r in range(n)]
    col_ids = [[((t - c) % n) * n + c for t in range(n)] for c in range(n)]
    succ = []
    for r in range(n):
        in_row = row_ids[r]
        for c in range(n):
            val = (r + c) % n
            succ.append(frozenset(in_row[val + 1 :] + col_ids[c][:val]))
    return Digraph(n * n, tuple(succ))


def _sorted_cells(n: int, s: Iterable[int]) -> list[int]:
    """The cells of s ascending, repeats kept; ValueError unless all lie in
    the n x n square.  Sorting an ascending list takes one linear pass."""
    cells = sorted(s)
    if cells and (cells[0] < 0 or cells[-1] >= n * n):
        bad = cells[0] if cells[0] < 0 else cells[-1]
        raise ValueError(f"vertex {bad} out of range for the {n}x{n} square")
    return cells


def _row_spans(n: int, cells: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """(r, lo, wrap, hi) for each row r of the ascending cells: row r is
    cells[lo:hi], and as its Latin value r + c wraps round to r + c - n
    from column n - r on, it ascends as cells[wrap:hi] + cells[lo:wrap]."""
    lo = 0
    while lo < len(cells):
        r = cells[lo] // n
        hi = bisect_left(cells, (r + 1) * n, lo)
        wrap = bisect_left(cells, (r + 1) * n - r, lo, hi)
        yield r, lo, wrap, hi
        lo = hi


def square_kernel_oracle(n: int, s: Iterable[int]) -> frozenset[int]:
    """Kernel of a cell subset of the square orientation, via stable matching.

    Treats rows as proposers and columns as reviewers with the allowed
    pairs being exactly the cells of ``s``: a row prefers its cells with
    larger Latin value, a column prefers its cells with smaller value,
    mirroring the edge directions.  The row-optimal stable matching of
    this market is a kernel of the subgraph induced on ``s``: matched
    cells are independent (one per row and column), and stability hands
    every unmatched cell of ``s`` an out-edge into the matching.

    Runs row-proposing deferred acceptance directly on Latin values:
    within a row or a column each value names one cell, so a column
    need only remember the value it holds.  ``s`` may be any iterable
    with repeats; an ascending list is sorted in one linear pass.
    """
    cells = _sorted_cells(n, s)
    prefs = {  # each row ascending by value: pop() yields its favourite left
        r: cells[wrap:hi] + cells[lo:wrap] for r, lo, wrap, hi in _row_spans(n, cells)
    }
    held = [n] * n  # Latin value of the cell each column holds; n = none
    for r, row in prefs.items():
        while row:
            c = row.pop() % n
            t = (r + c) % n
            h = held[c]
            if t < h:
                held[c] = t
                if h == n:
                    break
                r = (h - c) % n  # the displaced row proposes next
                row = prefs[r]
    return frozenset(((t - c) % n) * n + c for c, t in enumerate(held) if t < n)


def is_square_kernel(n: int, s: Iterable[int], s_prime: Iterable[int]) -> bool:
    """True iff s_prime is a kernel of the cells s in the square orientation.

    Agrees with ``is_kernel(build_square_orientation(n), s, s_prime)``
    without building the orientation: s_prime must lie inside s (else
    False, not an error) with at most one cell per row and per column,
    and every other cell of s needs a chosen cell in its row with larger
    Latin value or one in its column with smaller value.  Only cells
    above their row's chosen one (all, if none) can lack the first, so
    past one sort of s, linear when ascending, this takes O(n log |s|)
    plus those cells; an s of at most n cells is tested cell by cell.
    """
    cells = _sorted_cells(n, s)
    row_top = [-1] * n  # Latin value of the chosen cell per row; -1 = none
    col_low = [n] * n  # Latin value of the chosen cell per column; n = none
    for v in frozenset(s_prime):
        i = bisect_left(cells, v)
        if i == len(cells) or cells[i] != v:
            return False
        r, c = divmod(v, n)
        if row_top[r] >= 0 or col_low[c] < n:
            return False
        row_top[r] = col_low[c] = (r + c) % n
    # A chosen cell, or a repeat of it, meets neither strict inequality.
    if len(cells) <= n:  # about a cell per row: spans would cost more
        for v in cells:
            r, c = divmod(v, n)
            if row_top[r] < (r + c) % n < col_low[c]:
                return False
        return True
    for r, lo, wrap, hi in _row_spans(n, cells):
        # the row from its chosen cell up in Latin value; all of it if none
        t = row_top[r]
        j = wrap if t < 0 else bisect_left(cells, r * n + (t - r) % n, lo, hi)
        for u in cells[j:wrap] if j < wrap else cells[j:hi] + cells[lo:wrap]:
            c = u % n
            if (r + c) % n < col_low[c]:
                return False
    return True


@dataclass(frozen=True)
class ColorPass:
    """One round of the coloring loop: who wanted the color, who got it."""

    color: int
    candidates: frozenset[int]
    chosen: frozenset[int]


def list_color_with_kernels(
    g: Digraph,
    lists: Sequence[AbstractSet[int]],
    oracle: KernelOracle,
    *,
    checked: bool = False,
    trace: list[ColorPass] | None = None,
) -> dict[int, int]:
    """Properly color g from per-vertex lists using a kernel oracle.

    Requires every list to be strictly larger than its vertex's
    outdegree.  Each round takes the smallest color id still wanted by
    an uncolored vertex, asks the oracle for a kernel of the wanting
    set, colors the kernel, and strikes the color from the losers'
    lists.  A loser's lost option is paid for by a lost out-neighbor
    (its edge into the kernel), so the size-versus-outdegree slack
    survives every round; with ``checked=True`` that is re-verified
    after each pass.

    Every oracle answer is validated with :func:`is_kernel`; a bad
    answer raises :class:`KernelOracleError` with the residual state.
    Appends a :class:`ColorPass` per round to ``trace`` when given.
    """
    n = g.num_vertices
    if len(lists) != n:
        raise ValueError(f"expected {n} color lists, got {len(lists)}")
    for v in range(n):
        if len(lists[v]) <= len(g.succ[v]):
            raise ValueError(
                f"vertex {v}: list size {len(lists[v])} must exceed outdegree {len(g.succ[v])}"
            )
    current: list[set[int]] = [set(l) for l in lists]
    uncolored: set[int] = set(range(n))
    members_of: dict[int, set[int]] = {}
    for v in range(n):
        for col in current[v]:
            members_of.setdefault(col, set()).add(v)
    assigned: dict[int, int] = {}
    for color in sorted(members_of):
        if not uncolored:
            break
        if not members_of[color]:
            continue
        candidates = frozenset(members_of.pop(color))
        chosen = oracle(g, candidates)
        if chosen is not None:
            chosen = frozenset(chosen)
        if (
            chosen is None
            or not chosen <= candidates
            or not is_kernel(g, candidates, chosen)
        ):
            raise KernelOracleError(
                color,
                candidates,
                chosen,
                {v: frozenset(current[v]) for v in sorted(uncolored)},
            )
        for v in chosen:
            assigned[v] = color
            uncolored.remove(v)
            current[v].discard(color)
            for col in current[v]:
                members_of[col].discard(v)
        for v in candidates - chosen:
            current[v].discard(color)
        if trace is not None:
            trace.append(ColorPass(color, candidates, chosen))
        if checked:
            for v in uncolored:
                residual_out = sum(1 for w in g.succ[v] if w in uncolored)
                if len(current[v]) <= residual_out:
                    raise AssertionError(
                        f"slack invariant violated at vertex {v} after color {color}: "
                        f"{len(current[v])} colors vs residual outdegree {residual_out}"
                    )
    if uncolored:
        raise RuntimeError(
            f"no colors left but {len(uncolored)} vertices uncolored; "
            "this cannot happen when every oracle answer was a kernel"
        )
    return assigned


@dataclass(frozen=True)
class DinitzInstance:
    """An n x n grid of color lists, with colors interned to dense ids.

    ``lists[r][c]`` is the frozenset of interned color ids available at
    cell (r, c); ``labels[i]`` recovers the original label of color i.
    Interning follows first appearance in row-major order, which also
    fixes the color order the solver processes.  An instance built
    directly rather than by :meth:`from_labels` may use any int ids.
    """

    n: int
    lists: tuple[tuple[frozenset[int], ...], ...]
    labels: tuple[Hashable, ...]

    @classmethod
    def from_labels(
        cls, rows: Sequence[Sequence[Iterable[Hashable]]]
    ) -> "DinitzInstance":
        """Intern an n x n nested structure of color labels.

        Cells given as sets are sorted before interning so the id
        assignment never depends on hash order; sequences keep their
        order.  Duplicate labels within a cell collapse.  Empty cells
        are rejected.
        """
        n = len(rows)
        cells: list[Sequence[Hashable]] = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
            for j, cell in enumerate(row):
                if isinstance(cell, (set, frozenset)):
                    cell = sorted(cell)
                elif not isinstance(cell, (list, tuple)):
                    cell = list(cell)
                if not cell:
                    raise ValueError(f"cell ({i}, {j}) has an empty color list")
                cells.append(cell)
        ids: defaultdict[Hashable, int] = defaultdict(count().__next__)
        get = ids.__getitem__  # numbers each label on first appearance
        # frozenset(map(...)) grows its table one insert at a time and ends
        # twice as large; copying a set sizes the frozenset for its cell.
        flat = [frozenset(set(map(get, cell))) for cell in cells]
        lists = tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))
        inst = cls(n, lists, tuple(ids))
        inst.__dict__["_colors"] = list(ids.values())  # each id is in some cell
        return inst

    def intern_grid(self, rows: Sequence[Sequence[Hashable]]) -> list[list[int]]:
        """Map a grid of labels to color ids; unknown labels get fresh
        negative ids (distinct per label) so they can never pass a
        membership check yet still compare equal to themselves."""
        unknown: dict[Hashable, int] = {}
        out = []
        for row in rows:
            out_row = []
            for lab in row:
                cid = self._table.get(lab)
                if cid is None:
                    cid = unknown.setdefault(lab, -1 - len(unknown))
                out_row.append(cid)
            out.append(out_row)
        return out

    def label_grid(self, grid: Sequence[Sequence[int]]) -> list[list[Hashable]]:
        """Map a grid of color ids back to the original labels."""
        return [[self.labels[cid] for cid in row] for row in grid]

    @cached_property
    def _table(self) -> dict[Hashable, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _colors(self) -> list[int]:
        """The color ids the lists use, ascending, as the int objects the
        cell sets hold: a grid of them passes membership tests on
        identity.  :meth:`from_labels` sets it without a scan."""
        return sorted(set().union(*chain.from_iterable(self.lists)))


@dataclass(frozen=True)
class LatinReport:
    """Outcome of a generalized-Latin-square check.

    ``reason`` is "row-repeat", "column-repeat" or "not-in-list" when
    invalid, with ``row``/``col`` locating the violation.
    """

    valid: bool
    reason: str = ""
    row: int | None = None
    col: int | None = None


def solve_dinitz(
    inst: DinitzInstance,
    *,
    checked: bool = False,
    trace: list[ColorPass] | None = None,
) -> list[list[int]]:
    """Pick one color id per cell so rows and columns stay all-distinct.

    Requires every cell list to hold at least n colors.  Colors are
    visited once each, smallest id first, and each goes to a kernel of
    the uncolored cells that list it: one :func:`square_kernel_oracle`
    call on them as an ascending list, checked by :func:`is_square_kernel`.
    The orientation is built only for the ``checked=True`` audit, which
    after each pass compares every uncolored cell's colors above the
    pass's with its uncolored successors.  The grid, ``trace``,
    ``checked`` and a bad answer's :class:`KernelOracleError` are those
    of :func:`list_color_with_kernels` on the Latin-value orientation
    with the same oracle.  Returns the n x n grid of chosen color ids;
    it always passes :func:`verify_generalized_latin`.
    """
    n = inst.n
    cells = [cell for row in inst.lists for cell in row]
    colors = inst._colors
    # buckets[color]: the cells listing it, ascending.  Ids 0..k-1, as
    # from_labels numbers them, index a list, cheaper per entry than a
    # dict; a directly built instance may use any ids, which key a dict.
    buckets: list[list[int]] | dict[int, list[int]]
    if colors == list(range(len(colors))):
        buckets = [[] for _ in colors]
    else:
        buckets = {color: [] for color in colors}
    for v, cell in enumerate(cells):
        if len(cell) < n:
            raise UndersizedListError(*divmod(v, n), len(cell), n)
        for color in cell:
            buckets[color].append(v)
    succ = build_square_orientation(n).succ if checked else ()
    colored = bytearray(n * n)
    flat = [0] * (n * n)
    left = n * n
    for color in colors:
        if not left:
            break
        candidates = [v for v in buckets[color] if not colored[v]]  # ascending
        buckets[color] = ()  # free it for the passes still to come
        if not candidates:
            continue
        chosen = square_kernel_oracle(n, candidates)
        if chosen is not None:
            chosen = frozenset(chosen)
        if chosen is None or not is_square_kernel(n, candidates, chosen):
            raise KernelOracleError(
                color,
                frozenset(candidates),
                chosen,
                {
                    v: frozenset(c for c in cells[v] if c >= color)
                    for v in range(n * n)
                    if not colored[v]
                },
            )
        for v in chosen:
            colored[v] = 1
            flat[v] = color
        left -= len(chosen)
        if trace is not None:
            trace.append(ColorPass(color, frozenset(candidates), chosen))
        if checked:
            for v in range(n * n):
                if colored[v]:
                    continue
                remaining = sum(1 for c in cells[v] if c > color)
                residual_out = sum(1 for w in succ[v] if not colored[w])
                if remaining <= residual_out:
                    raise AssertionError(
                        f"slack invariant violated at vertex {v} after color {color}: "
                        f"{remaining} colors vs residual outdegree {residual_out}"
                    )
    if left:
        raise RuntimeError(
            f"no colors left but {left} cells uncolored; "
            "this cannot happen when every oracle answer was a kernel"
        )
    return [flat[r * n : (r + 1) * n] for r in range(n)]


def verify_generalized_latin(inst, grid: Sequence[Sequence[Hashable]]) -> LatinReport:
    """Check a grid of colors against an instance.

    Valid iff every row and every column has all-distinct entries and
    each entry belongs to its cell's list.  Violations are reported in
    that order: rows, then columns, then cell membership.

    ``inst`` may be any object with an ``n`` and ``lists`` whose cells
    support ``in``: a :class:`DinitzInstance` with a grid of color ids,
    or the raw label lists with a grid of labels, which gives the same
    verdict because interning, too, tells labels apart by equality.
    """
    n = inst.n
    if len(grid) != n or any(len(row) != n for row in grid):
        raise ValueError(f"grid dimensions do not match the {n}x{n} instance")
    for i in range(n):
        if len(set(grid[i])) != n:
            return LatinReport(False, "row-repeat", row=i)
    for j, column in enumerate(zip(*grid)):
        if len(set(column)) != n:
            return LatinReport(False, "column-repeat", col=j)
    for i, (row, cells) in enumerate(zip(grid, inst.lists)):
        if not all(map(contains, cells, row)):
            j = next(j for j, color in enumerate(row) if color not in cells[j])
            return LatinReport(False, "not-in-list", row=i, col=j)
    return LatinReport(True)
