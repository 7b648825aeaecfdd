"""Gale-Shapley deferred acceptance over incomplete preference structures.

Preferences live only on an explicit set of allowed (row, col) pairs;
a pair absent from ``allowed`` can never match and never block.  With
incomplete lists not everyone need be matched, but the matchings
produced here are always stable: no allowed pair prefers each other to
what they currently hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

Pair = tuple[int, int]


class ProfileError(ValueError):
    """Malformed preference profile."""


@dataclass(frozen=True)
class PreferenceProfile:
    """Two-sided preferences over an allowed-pair set.

    ``row_rank`` and ``col_rank`` map each allowed (row, col) pair to a
    rank value; lower sorts first, i.e. is preferred.  Ranks may be any
    values comparable within one row (resp. column) -- only relative
    order matters -- and must be defined on exactly the allowed pairs,
    with no rank collisions within a row or column.
    """

    num_rows: int
    num_cols: int
    allowed: frozenset[Pair]
    row_rank: Mapping[Pair, Any]
    col_rank: Mapping[Pair, Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        for r, c in self.allowed:
            if not (0 <= r < self.num_rows and 0 <= c < self.num_cols):
                raise ProfileError(f"allowed pair ({r}, {c}) out of range")
        for name, table in (("row_rank", self.row_rank), ("col_rank", self.col_rank)):
            if set(table) != self.allowed:
                raise ProfileError(f"{name} must be defined on exactly the allowed pairs")
        row_seen: dict[int, set] = {}
        col_seen: dict[int, set] = {}
        for r, c in self.allowed:
            rr = self.row_rank[(r, c)]
            if rr in row_seen.setdefault(r, set()):
                raise ProfileError(f"rank collision in row {r}")
            row_seen[r].add(rr)
            cr = self.col_rank[(r, c)]
            if cr in col_seen.setdefault(c, set()):
                raise ProfileError(f"rank collision in column {c}")
            col_seen[c].add(cr)


def deferred_acceptance(p: PreferenceProfile) -> frozenset[Pair]:
    """Row-proposing deferred acceptance; returns the row-optimal stable matching.

    Rows in ascending id each start a proposal chain.  A row proposes to
    its best allowed column it has not proposed to yet; a column holds
    its best proposal so far and trades up when a preferred row arrives,
    and the row it lets go proposes next.  A chain ends when a free
    column takes its row or a row runs out of columns.  Each allowed
    pair is proposed at most once, so there are at most |allowed|
    proposals.  Every proposal order gives the same matching, because
    the row-optimal stable matching is unique.
    """
    prefs: dict[int, list[int]] = {}
    for r, c in p.allowed:
        prefs.setdefault(r, []).append(c)
    for r, cols in prefs.items():  # worst first, so pop() gives the next best
        cols.sort(key=lambda c: p.row_rank[(r, c)], reverse=True)
    holder: dict[int, int] = {}
    for r in sorted(prefs):
        while r is not None and prefs[r]:
            c = prefs[r].pop()
            current = holder.get(c)
            if current is None or p.col_rank[(r, c)] < p.col_rank[(current, c)]:
                holder[c], r = r, current
    return frozenset((r, c) for c, r in holder.items())


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    blocking_pair: Pair | None = None


def _check_matching(p: PreferenceProfile, matching: Iterable[Pair]) -> frozenset[Pair]:
    pairs = frozenset(matching)
    if not pairs <= p.allowed:
        raise ValueError(f"matching uses forbidden pairs: {sorted(pairs - p.allowed)}")
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("matching assigns some row or column more than once")
    return pairs


def is_stable(p: PreferenceProfile, matching: Iterable[Pair]) -> StabilityReport:
    """Check a matching for blocking pairs.

    A pair (r, c) in ``allowed`` but not matched blocks when r is
    unmatched or prefers c to its partner, and likewise for c.  The
    witness is the first blocking pair in row-major order.
    """
    pairs = _check_matching(p, matching)
    partner_col = {r: c for r, c in pairs}
    partner_row = {c: r for r, c in pairs}
    for r, c in sorted(p.allowed):
        if (r, c) in pairs:
            continue
        mc = partner_col.get(r)
        row_wants = mc is None or p.row_rank[(r, c)] < p.row_rank[(r, mc)]
        if not row_wants:
            continue
        mr = partner_row.get(c)
        col_wants = mr is None or p.col_rank[(r, c)] < p.col_rank[(mr, c)]
        if col_wants:
            return StabilityReport(False, (r, c))
    return StabilityReport(True)


def enumerate_stable_matchings(
    p: PreferenceProfile, cap: int = 20
) -> list[frozenset[Pair]]:
    """All stable matchings, by exhaustion over subsets of the allowed pairs.

    Enumerates the 2^|allowed| subsets in increasing bitmask order over
    the row-major-sorted pair list, keeping those that are matchings and
    stable.  Oracle-grade: independent of deferred_acceptance.
    """
    pairs = sorted(p.allowed)
    k = len(pairs)
    if k > cap:
        raise ValueError(f"|allowed| = {k} exceeds the enumeration cap of {cap}")
    results: list[frozenset[Pair]] = []
    for mask in range(1 << k):
        chosen = []
        rows_used: set[int] = set()
        cols_used: set[int] = set()
        ok = True
        for i in range(k):
            if mask >> i & 1:
                r, c = pairs[i]
                if r in rows_used or c in cols_used:
                    ok = False
                    break
                rows_used.add(r)
                cols_used.add(c)
                chosen.append((r, c))
        if not ok:
            continue
        candidate = frozenset(chosen)
        if is_stable(p, candidate).stable:
            results.append(candidate)
    return results
