"""Canonical forms for tiny graphs by a least-labelling search.

The canonical form of a graph is the graph6 string of its lexicographically
least relabelling.  graph6 lists the upper triangle column by column, so
`_least` assigns the labels 0, 1, ... depth first and drops a partial labelling
once one of its columns exceeds the least found so far.  Prefixes of a least
labelling are least, so the same search, stopped when a labelling beats the
identity, is the canonicity test of the class generator (extremal._graphs).
"""

from __future__ import annotations

from .graph6 import serialize_graph6
from .graphs import Graph, UnsupportedSizeError, edge_index

CANONICAL_ORDER_CAP = 8


def _least(order: int, adj: tuple[int, ...], stop_below: bool = False) -> tuple[list[int], int] | None:
    """(least columns, number of labellings attaining them = |Aut|), or None
    under stop_below once a labelling beats the identity.  Column k packs the
    pairs (i, k), i = 0 most significant, so integer order is string order."""
    best = [sum((adj[k] >> i & 1) << (k - 1 - i) for i in range(k)) for k in range(order)]
    # (v w) is an automorphism exactly when N(v) - w = N(w) - v: one twin stands for all
    twins = [sum(1 << w for w in range(order) if adj[w] & ~(1 << v) == adj[v] & ~(1 << w))
             for v in range(order)]
    count = 0

    def search(k: int, cells: list[tuple[int, int]], weight: int) -> bool:
        # cells group the unlabelled vertices by their next column, least
        # first; labelling w splits each cell into its non-neighbours (bit 0)
        # and neighbours (bit 1) of w
        nonlocal count
        if k == order:
            count += weight
            return True
        code, first = cells[0]
        if code != best[k]:
            if code > best[k]:
                return True
            if stop_below:
                return False
            # a new least prefix: the labellings counted so far are beaten, and
            # the later columns are open (1 << order exceeds every column)
            best[k:] = [code] + [1 << order] * (order - k - 1)
            count = 0
        while first:
            w = (first & -first).bit_length() - 1
            same = first & twins[w]
            first &= ~same
            row, split = adj[w], []
            for c, cell in cells:
                out, into = cell & ~row & ~(1 << w), cell & row
                if out:
                    split.append((c << 1, out))
                if into:
                    split.append((c << 1 | 1, into))
            if not search(k + 1, split, weight * same.bit_count()):
                return False
        return True

    if not search(0, [(0, (1 << order) - 1)], 1):
        return None
    return best, count


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically least relabelling of g."""
    if g.order > CANONICAL_ORDER_CAP:
        raise UnsupportedSizeError(f"canonical_form is capped at order {CANONICAL_ORDER_CAP}, got {g.order}")
    columns, _ = _least(g.order, g.adj)
    mask = sum(1 << edge_index(i, k) for k, column in enumerate(columns)
               for i in range(k) if column >> (k - 1 - i) & 1)
    return serialize_graph6(Graph.from_edge_mask(g.order, mask))
