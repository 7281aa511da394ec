"""Branching enumerator for maximal dissociation sets.

The recursion partitions the target family by the status of a pivot vertex v
of maximum residual degree: either v is excluded, or v is in the set with no
neighbour beside it, or v is in the set next to exactly one neighbour u.  The
three shapes recurse on G-v, G-N[v] and G-(N[v] u N[u]) respectively.  Once
the residual graph has maximum degree <= 1 it is swallowed whole.  Like the X
set of Bron-Kerbosch, the recursion carries the excluded vertices that the
final set must still block (give two neighbours in the set, or one neighbour
that already has its partner) and cuts a branch as soon as one of them no
longer can be.  Every leaf is therefore a distinct maximal set, and no filter
or deduplication follows the search.  The maximum-set search is the same
recursion with a cut on size.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .graphs import Graph, check_enumeration_order
from .oracle import DissociationFamily, _members


def _search(adj: Sequence[int], rmask: int, leaf: Callable[[int], int]) -> None:
    """Call `leaf` once with each maximal dissociation set of the subgraph
    induced by `rmask`.

    `leaf` returns the least set size still wanted; branches whose taken plus
    residual vertices fall short of it are cut.
    """
    floor = 0

    def rec(rmask: int, partial: int, x: int) -> None:
        nonlocal floor
        # x holds the excluded vertices that the final set must still block.
        # No residual vertex neighbours a taken one, so taken degrees are final.
        m = x
        while m:
            wb = m & -m
            m ^= wb
            nw = adj[wb.bit_length() - 1]
            t = nw & partial
            if t and (t & (t - 1) or adj[t.bit_length() - 1] & partial):
                x ^= wb  # blocked for good
                continue
            r = nw & rmask
            if not r or (not t and not r & (r - 1) and not adj[r.bit_length() - 1] & rmask):
                return  # w can never be blocked: every leaf below is non-maximal
        best_v = -1
        best_d = 1
        m = rmask
        while m:
            vb = m & -m
            m ^= vb
            v = vb.bit_length() - 1
            d = (adj[v] & rmask).bit_count()
            if d > best_d:
                best_d = d
                best_v = v
        if best_v < 0:
            # Residual max degree <= 1: isolated vertices and lone edges all go
            # in.  Each w left in x has a residual neighbour and also a second
            # neighbour in the set, or a lone residual neighbour whose partner
            # goes in too, so the set blocks w and is maximal.
            floor = leaf(partial | rmask)
            return
        vb = 1 << best_v
        nv = adj[best_v] & rmask
        size = (partial | rmask).bit_count()
        if size > floor:
            rec(rmask & ~vb, partial, x | vb)
        if size - best_d >= floor:
            rec(rmask & ~(nv | vb), partial | vb, x | nv)
        m = nv
        while m:
            ub = m & -m
            m ^= ub
            nu = adj[ub.bit_length() - 1] & rmask
            # every other neighbour of v or u sees the pair, so it is blocked
            cr = rmask & ~(nv | nu | vb | ub)
            if (partial | cr).bit_count() + 2 >= floor:
                rec(cr, partial | vb | ub, x)

    rec(rmask, 0, 0)


def candidate_masks(order: int, adj: Sequence[int], within: int | None = None) -> list[int]:
    """Search leaves: each maximal dissociation set exactly once, unordered.

    `within` restricts the search to the subgraph induced by that vertex
    bitmask (all vertices by default).
    """
    out: list[int] = []
    app = out.append

    def leaf(f: int) -> int:
        app(f)
        return 0

    _search(adj, (1 << order) - 1 if within is None else within, leaf)
    return out


def maximal_masks(order: int, adj: Sequence[int], within: int | None = None) -> list[int]:
    """All maximal dissociation sets as bitmasks, ascending.

    Low-level entry point used by the exhaustive sweeps and the recurrence
    suite; `enumerate_maximal` wraps the result in a DissociationFamily.
    """
    return sorted(candidate_masks(order, adj, within))


class CountResult(NamedTuple):
    phi: int          # number of maximal dissociation sets
    phi_max: int      # number of maximum dissociation sets
    psi: int          # dissociation number (size of a maximum set)


def _component_families(g: Graph) -> list[list[int]]:
    """The maximal dissociation sets of each connected component of g, in
    search order: count needs no order, and DissociationFamily.from_masks
    orders the product of the parts.

    A maximal set of g is exactly a union of one maximal set per component,
    so callers combine the parts instead of searching g as a whole.
    """
    return [candidate_masks(g.order, g.adj, comp) for comp in g.components()]


def enumerate_maximal(g: Graph) -> DissociationFamily:
    """Exactly the maximal dissociation sets of g, in canonical family order:
    the product of its components' families, which from_masks merges."""
    check_enumeration_order(g.order)
    return DissociationFamily.from_masks(g.order, *_component_families(g))


def count(g: Graph) -> CountResult:
    """phi / phi_max / psi of g via the branching enumerator.

    phi and phi_max multiply over the connected components and psi adds.
    """
    check_enumeration_order(g.order)
    phi = phi_max = 1
    psi = 0
    for part in _component_families(g):
        sizes = [m.bit_count() for m in part]
        top = max(sizes)
        phi *= len(sizes)
        phi_max *= sizes.count(top)
        psi += top
    return CountResult(phi, phi_max, psi)


def _pivot_partition(family: Sequence[int], adj: Sequence[int], v: int) -> tuple[int, int, int]:
    """Split a family of vertex masks by the status of pivot v in each set:
    (excluded, isolated in the set, paired with one neighbour in the set).
    A set giving v two or more neighbours is in no part, and the parts then
    sum to less than the family's size."""
    vb = 1 << v
    excluded = isolated = paired = 0
    for m in family:
        if not m & vb:
            excluded += 1
        elif not adj[v] & m:
            isolated += 1
        elif (adj[v] & m).bit_count() == 1:
            paired += 1
    return excluded, isolated, paired


def _lex_less(a: int, b: int) -> bool:
    """Sorted-member-list lexicographic order for equal-size vertex sets."""
    d = a ^ b
    if d == 0:
        return False
    return bool(a & (d & -d))


def maximum_dissociation_set(g: Graph) -> set[int]:
    """The lexicographically least dissociation set of maximum size.

    Every maximum set is maximal, so the enumerator's own search finds them
    all; once a set is found, branches that cannot reach its size are cut.
    The answer is the union of each connected component's answer: sizes add,
    and the least vertex where two maximum sets differ decides within one part.
    """
    check_enumeration_order(g.order)
    out = 0
    for comp in g.components():
        best_size = -1
        best_mask = 0

        def leaf(f: int) -> int:
            nonlocal best_size, best_mask
            size = f.bit_count()
            if size > best_size or (size == best_size and _lex_less(f, best_mask)):
                best_size = size
                best_mask = f
            return best_size

        _search(g.adj, comp, leaf)
        out |= best_mask
    return set(_members(out))
