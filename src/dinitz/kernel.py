"""Digraph kernels: verification, exhaustive search, and the hereditary audit.

A kernel of a vertex subset S is an independent set S' contained in S
such that every vertex of S - S' has an out-edge into S'.  Only edges
with both endpoints inside S count, i.e. a kernel of S is a kernel of
the subgraph induced on S, which is all these routines read.  They are
the slow, trustworthy ground truth for the fast Gale-Shapley path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import Digraph, induced_subgraph, is_independent, vertex_subset

DEFAULT_KERNEL_CAP = 24
DEFAULT_AUDIT_CAP = 20


@dataclass(frozen=True)
class PropertyXReport:
    """Result of the every-subset-has-a-kernel audit.

    ``witness`` is a kernel-free subset, present exactly when the
    property fails; ``subsets_checked`` counts subsets examined up to and
    including the decision point.
    """

    holds: bool
    witness: frozenset[int] | None
    subsets_checked: int


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_kernel_mask(
    out_masks: tuple[int, ...],
    adj_masks: tuple[int, ...],
    s_mask: int,
    sp_mask: int,
) -> bool:
    for v in _bits(sp_mask):
        if adj_masks[v] & sp_mask:
            return False
    for v in _bits(s_mask & ~sp_mask):
        if not out_masks[v] & sp_mask:
            return False
    return True


def is_kernel(g: Digraph, s: Iterable[int], s_prime: Iterable[int]) -> bool:
    """True iff s_prime is independent and dominates s - s_prime.

    Domination means every vertex of s - s_prime has an out-edge to some
    vertex of s_prime.  s_prime = s is permitted; an independent set
    vacuously dominates its empty complement.
    """
    s_set = vertex_subset(g, s)
    sp_set = frozenset(s_prime)
    if not sp_set <= s_set:
        raise ValueError(f"s_prime contains vertices outside s: {sorted(sp_set - s_set)}")
    return is_independent(g, sp_set) and all(
        not g.succ[v].isdisjoint(sp_set) for v in s_set - sp_set
    )


def find_kernel_bruteforce(
    g: Digraph, s: Iterable[int], cap: int = DEFAULT_KERNEL_CAP
) -> frozenset[int] | None:
    """Exhaustively search for a kernel of s; None if no kernel exists.

    Walks the subsets of the subgraph induced on s, numbered in the order
    of s's ids, upward in bitmask order, so the first kernel found is the
    one with the smallest bitmask value in g (not the lexicographically
    smallest vertex list).  The empty set is the (vacuous) kernel of an
    empty s.  Raises ValueError for an s of more than ``cap`` vertices.
    """
    members = vertex_subset(g, s)
    if len(members) > cap:
        raise ValueError(
            f"subset has {len(members)} vertices, exceeding the cap of {cap}"
        )
    h, _ = induced_subgraph(g, members)
    order = sorted(members)  # vertex i of h is order[i]
    s_mask = (1 << len(order)) - 1
    for sub in range(s_mask + 1):
        if _is_kernel_mask(h.out_masks, h.adj_masks, s_mask, sub):
            return frozenset(order[i] for i in _bits(sub))
    return None


def has_property_x(g: Digraph, cap: int = DEFAULT_AUDIT_CAP) -> PropertyXReport:
    """Audit whether every vertex subset of g has a kernel.

    Enumerates all 2^n subsets in increasing bitmask order and stops at
    the first subset with no kernel.  Each subset's sub-masks are walked
    downward from the subset itself, which is its own kernel whenever it
    is independent.  Deliberately exponential; refuse graphs above
    ``cap`` vertices rather than truncating silently.
    """
    n = g.num_vertices
    if n > cap:
        raise ValueError(f"graph has {n} vertices, exceeding the audit cap of {cap}")
    out_masks, adj_masks = g.out_masks, g.adj_masks
    for count, s_mask in enumerate(range(1 << n), start=1):
        sub = s_mask
        while not _is_kernel_mask(out_masks, adj_masks, s_mask, sub):
            if not sub:
                return PropertyXReport(False, frozenset(_bits(s_mask)), count)
            sub = (sub - 1) & s_mask
    return PropertyXReport(True, None, 1 << n)
