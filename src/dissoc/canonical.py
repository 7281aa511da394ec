"""Canonical forms for tiny graphs by exhaustive permutation minimization.

The canonical form of a graph is the graph6 string of the relabelling whose
upper-triangle bit string is lexicographically minimal over all order!
permutations.  Two graphs of order <= 8 are isomorphic exactly when
their canonical forms are equal.  The factorial scan is deliberate: at these
orders it is cheap, trivially correct, and needs no refinement machinery.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .graph6 import serialize_graph6
from .graphs import Graph, UnsupportedSizeError, edge_index

CANONICAL_ORDER_CAP = 8


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


def _relabellings(g: Graph) -> Iterator[tuple[int, int]]:
    """(bits, mask) per relabelling of g: its upper triangle packed with the
    first vertex pair most significant, and its Graph.from_edge_mask mask."""
    if g.order > CANONICAL_ORDER_CAP:
        raise UnsupportedSizeError(
            f"canonical_form is capped at order {CANONICAL_ORDER_CAP} "
            f"(factorial scan), got {g.order}"
        )
    n = g.order
    edges = list(g.edges())
    index = [[edge_index(i, j) for j in range(n)] for i in range(n)]
    top = n * (n - 1) // 2 - 1
    for perm in _perms(n):
        # vertex a of g becomes perm[a]; only the edges of g set bits
        bits = mask = 0
        for a, b in edges:
            k = index[perm[a]][perm[b]]
            bits |= 1 << (top - k)
            mask |= 1 << k
        yield bits, mask


def canonical_form(g: Graph) -> str:
    """graph6 string of the lexicographically minimal relabelling of g."""
    _, mask = min(_relabellings(g))
    return serialize_graph6(Graph.from_edge_mask(g.order, mask))


def relabelled_masks(g: Graph) -> set[int]:
    """Edge masks of every relabelling of g: the labeled graphs isomorphic to g."""
    return {mask for _, mask in _relabellings(g)}
