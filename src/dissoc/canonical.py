"""Canonical forms by a least-labelling search, under a time budget.

The canonical form of a graph is the graph6 string of its lexicographically
least relabelling.  graph6 lists the upper triangle column by column, and
graph6._columns packs those columns into the integers `_least` compares, so
`_least` assigns the labels 0, 1, ... depth first and drops a partial labelling
once one of its columns exceeds the least found so far; of twins, vertices whose
swap is an automorphism (`_twins`, found by grouping equal open or closed
neighbourhoods), it tries one.  Prefixes of a least labelling are least, so the
same search, stopped when a labelling beats the identity, is the canonicity
test of the class generator (extremal._graphs), which first rejects most
children by two relabellings it checks without a search.  Every search runs
under CANONICAL_TIME_LIMIT seconds and raises TimeLimitError past it.
"""

from __future__ import annotations

import time

from .graph6 import _check_short_form, _columns, _spell
from .graphs import Graph, TimeLimitError

CANONICAL_TIME_LIMIT = 60.0  # seconds per least-labelling search, read at call time


def _twins(adj: tuple[int, ...]) -> list[int]:
    """twins[v]: the vertices w (v included) for which the swap (v w) is an
    automorphism, that is N(v) - w = N(w) - v.  Non-adjacent twins share
    their open neighbourhood and adjacent twins their closed one."""
    opened: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, row in enumerate(adj):
        opened[row] = opened.get(row, 0) | 1 << v
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
    return [opened[row] | closed[row | 1 << v] for v, row in enumerate(adj)]


def _least(order: int, adj: tuple[int, ...], stop_below: bool = False) -> tuple[list[int], int] | None:
    """(least columns, number of labellings attaining them = |Aut|), or None
    under stop_below once a labelling beats the identity.  The columns are
    graph6's (graph6._columns), so integer order is string order.  Raises
    TimeLimitError past CANONICAL_TIME_LIMIT s, checked every 1024 extending nodes."""
    limit = CANONICAL_TIME_LIMIT
    deadline = time.monotonic() + limit
    best = _columns(order, adj)
    twins = _twins(adj)  # one twin stands for all
    count = nodes = 0

    def search(k: int, cells: list[tuple[int, int]], weight: int) -> bool:
        # cells group the unlabelled vertices by their next column, least
        # first; labelling w splits each cell into its non-neighbours (bit 0)
        # and neighbours (bit 1) of w
        nonlocal count, nodes
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
        nodes += 1
        if not nodes & 1023 and time.monotonic() > deadline:
            raise TimeLimitError(f"order-{order} canonical labelling exceeded its {limit:.1f}s budget")
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
    """graph6 string of the lexicographically least relabelling of g.  The
    cost grows with symmetry, not order (K20 takes about 0.1 ms, C16 seconds);
    raises TimeLimitError past CANONICAL_TIME_LIMIT, and Graph6Error past
    order 62 before any search."""
    _check_short_form(g.order)
    return _spell(g.order, _least(g.order, g.adj)[0])
