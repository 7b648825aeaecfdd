"""The generic digraph, kernel and matching routines against reference copies.

Each ``ref_*`` function below is the earlier implementation of the
library function of the same name, the same code apart from names, type
hints, docstrings and defaults: a heap-driven deferred acceptance, a
kernel search that rebuilds each subset bit by bit, a property-X audit
with a found flag, and text and colouring routines that walk the sorted
edge set.  The library's versions must give the same results, and
``parse_digraph`` must raise the same exception type with the same text.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinitz import (
    ColoringReport,
    PreferenceProfile,
    PropertyXReport,
    build_square_orientation,
    deferred_acceptance,
    find_kernel_bruteforce,
    format_digraph,
    has_property_x,
    make_digraph,
    parse_digraph,
    verify_list_coloring,
    vertex_subset,
)
from dinitz.kernel import DEFAULT_AUDIT_CAP, DEFAULT_KERNEL_CAP, _bits, _is_kernel_mask

from strategies import digraphs, digraphs_with_subsets, graphs_with_scattered_subsets


def ref_find_kernel_bruteforce(g, s, cap=DEFAULT_KERNEL_CAP):
    members = sorted(vertex_subset(g, s))
    k = len(members)
    if k > cap:
        raise ValueError(f"subset has {k} vertices, exceeding the cap of {cap}")
    if k == 0:
        return frozenset()
    out_masks, adj_masks = g.out_masks, g.adj_masks
    member_bits = [1 << v for v in members]
    s_mask = 0
    for b in member_bits:
        s_mask |= b
    for p in range(1 << k):
        sp_mask = 0
        for i in range(k):
            if p >> i & 1:
                sp_mask |= member_bits[i]
        if _is_kernel_mask(out_masks, adj_masks, s_mask, sp_mask):
            return frozenset(members[i] for i in range(k) if p >> i & 1)
    return None


def ref_has_property_x(g, cap=DEFAULT_AUDIT_CAP):
    n = g.num_vertices
    if n > cap:
        raise ValueError(f"graph has {n} vertices, exceeding the audit cap of {cap}")
    out_masks, adj_masks = g.out_masks, g.adj_masks
    for count, s_mask in enumerate(range(1 << n), start=1):
        sub = s_mask
        found = False
        while True:
            if _is_kernel_mask(out_masks, adj_masks, s_mask, sub):
                found = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & s_mask
        if not found:
            witness = frozenset(_bits(s_mask))
            return PropertyXReport(False, witness, count)
    return PropertyXReport(True, None, 1 << n)


def ref_deferred_acceptance(p):
    prefs = {}
    for r, c in p.allowed:
        prefs.setdefault(r, []).append(c)
    for r, cols in prefs.items():
        cols.sort(key=lambda c: p.row_rank[(r, c)])
    next_choice = {r: 0 for r in prefs}
    holder = {}
    free = list(prefs)
    heapq.heapify(free)
    while free:
        r = heapq.heappop(free)
        if next_choice[r] >= len(prefs[r]):
            continue
        c = prefs[r][next_choice[r]]
        next_choice[r] += 1
        current = holder.get(c)
        if current is None:
            holder[c] = r
        elif p.col_rank[(r, c)] < p.col_rank[(current, c)]:
            holder[c] = r
            heapq.heappush(free, current)
        else:
            heapq.heappush(free, r)
    return frozenset((r, c) for c, r in holder.items())


def ref_verify_list_coloring(g, lists, coloring):
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
    for u, v in sorted(g.edges):
        if coloring[u] == coloring[v]:
            return ColoringReport(False, "edge-conflict", (u, v))
    return ColoringReport(True)


def _ref_ints(tokens):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"digraph text contains a non-integer token: {exc}") from None


def ref_parse_digraph(text, max_vertices):
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("digraph text needs a header line 'n m'")
    n, m = _ref_ints(tokens[:2])
    if n > max_vertices:
        raise ValueError(
            f"header declares {n} vertices, above the limit of {max_vertices}"
        )
    values = _ref_ints(tokens[2:])
    if len(values) != 2 * m:
        raise ValueError(f"header declares {m} edges but {len(values)} ints follow")
    pairs = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    return make_digraph(n, pairs)


def ref_format_digraph(g):
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return "raised", type(exc), str(exc)


@st.composite
def profiles(draw, max_rows=8, max_cols=8):
    """Preference profiles on a random allowed set, with distinct ranks
    per row and per column drawn from a shuffled range."""
    num_rows = draw(st.integers(0, max_rows))
    num_cols = draw(st.integers(0, max_cols))
    cells = [(r, c) for r in range(num_rows) for c in range(num_cols)]
    allowed = frozenset(
        pair for pair, keep in zip(cells, draw(st.lists(
            st.booleans(), min_size=len(cells), max_size=len(cells)))) if keep
    )
    row_rank, col_rank = {}, {}
    for side, rank, count in ((0, row_rank, num_rows), (1, col_rank, num_cols)):
        for i in range(count):
            pairs = sorted(pair for pair in allowed if pair[side] == i)
            ranks = draw(st.permutations(range(-len(pairs), len(pairs))))
            rank.update(zip(pairs, ranks))
    return PreferenceProfile(num_rows, num_cols, allowed, row_rank, col_rank)


# Tokens int() reads (a sign, digit groups, zero padding, non-ASCII
# digits) and tokens it refuses.
_ODD_INTS = st.sampled_from(["+3", "1_0", "٣", "007", "-0"])
_NON_INTS = st.sampled_from(["x", "1.5", "0x1", "--1", "1e3"])
_TOKENS = st.one_of(st.integers(-2, 9).map(str), _ODD_INTS, _NON_INTS)
_SPACES = st.sampled_from([" ", "\n", "\t", "  ", " \n", "\r\n", "\u3000", "\x0c"])


@st.composite
def digraph_texts(draw):
    """Digraph texts near the format.  The body is a valid edge list or
    pairs of small ints (self-loops, two-way and out-of-range edges), at
    times with a token dropped, a non-integer token put in, an edge added
    or the first edge repeated in reverse.  The header matches the body,
    or has odd or bad tokens, or is cut short.  Any whitespace separates
    the tokens."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        body = ref_format_digraph(draw(digraphs(max_vertices=n))).split()[2:]
    else:
        body = draw(st.lists(st.integers(-1, n).map(str) | _ODD_INTS, max_size=12))
    fault = draw(st.sampled_from(["none", "none", "drop", "non-int", "edge", "two-way"]))
    if fault == "drop" and body:
        body.pop(draw(st.integers(0, len(body) - 1)))
    elif fault == "non-int":
        body.insert(draw(st.integers(0, len(body))), draw(_NON_INTS))
    elif fault == "edge":
        body += [str(draw(st.integers(0, n))) for _ in range(2)]
    elif fault == "two-way":
        body += body[1::-1]  # the first edge reversed
    header = [draw(_TOKENS) if draw(st.integers(0, 4)) == 0 else str(count)
              for count in (n, len(body) // 2)]
    tokens = header[: draw(st.sampled_from([2, 2, 2, 2, 1, 0]))] + body
    text = draw(st.sampled_from(["", " ", "\n\t "]))
    for token in tokens:
        text += token + draw(_SPACES)
    return text


class TestKernelSearchMatchesReference:
    @given(
        digraphs_with_subsets(max_vertices=9) | graphs_with_scattered_subsets(),
        st.just(DEFAULT_KERNEL_CAP) | st.integers(0, 9),
    )
    @settings(max_examples=300)
    def test_find_kernel_bruteforce(self, gs, cap):
        g, s = gs
        assert outcome(find_kernel_bruteforce, g, s, cap) == outcome(
            ref_find_kernel_bruteforce, g, s, cap
        )

    @given(digraphs(max_vertices=7), st.integers(0, 8))
    @settings(max_examples=150)
    def test_has_property_x(self, g, cap):
        assert outcome(has_property_x, g, cap) == outcome(ref_has_property_x, g, cap)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_subset_of_the_square_orientation(self, n):
        g = build_square_orientation(n)
        for s_mask in range(1 << g.num_vertices):
            s = list(_bits(s_mask))
            assert find_kernel_bruteforce(g, s) == ref_find_kernel_bruteforce(g, s)


class TestDeferredAcceptanceMatchesReference:
    @given(profiles())
    @settings(max_examples=300)
    def test_same_matching(self, p):
        assert deferred_acceptance(p) == ref_deferred_acceptance(p)


class TestTextAndColoringMatchReference:
    @given(digraphs())
    def test_format_digraph(self, g):
        assert format_digraph(g) == ref_format_digraph(g)

    @pytest.mark.parametrize("n", range(7))
    def test_format_square_orientation(self, n):
        g = build_square_orientation(n)
        assert format_digraph(g) == ref_format_digraph(g)

    @given(digraph_texts(), st.integers(-1, 7) | st.just(6))
    @settings(max_examples=400)
    def test_parse_digraph(self, text, max_vertices):
        assert outcome(parse_digraph, text, max_vertices) == outcome(
            ref_parse_digraph, text, max_vertices
        )

    @given(digraphs(), st.data())
    @settings(max_examples=200)
    def test_verify_list_coloring(self, g, data):
        n = g.num_vertices
        colors = st.integers(0, 3)
        lists = [data.draw(st.frozensets(colors)) for _ in range(n)]
        if data.draw(st.booleans()):
            lists.append(frozenset())  # one list too many
        coloring = {v: data.draw(colors) for v in range(n)}
        for v in data.draw(st.sets(st.integers(0, n), max_size=2)):
            coloring.pop(v, None)
        assert outcome(verify_list_coloring, g, lists, coloring) == outcome(
            ref_verify_list_coloring, g, lists, coloring
        )
