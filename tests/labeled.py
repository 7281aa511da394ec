"""Labeled-graph oracles: for the class generator, the walk over every
labeled graph by vertex addition and the relabellings of one graph; for the
in-place searches on a vertex mask, G - S built as a new relabelled graph."""

from itertools import permutations
from typing import Iterable

from dissoc import Graph, SweepFilter, is_bipartite


def edge_index(i: int, j: int) -> int:
    """Position of the pair {i, j} in column-major upper-triangle order,
    (0,1), (0,2), (1,2), (0,3), ...: graph6's bit order and the edge-mask bit."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def labeled_graphs(order: int, filt: SweepFilter, j: int = 0, adj: tuple = (), mask: int = 0):
    """Yield (edge mask, adjacency) for every labeled graph on `order` vertices
    that `filt` admits and whose first j vertices induce the graph (mask, adj).

    Vertex j joins with a lower neighbourhood s, a subset of 0..j-1; its edges
    are the mask bits from edge_index(0, j) on, so s shifts in whole.  Both
    class filters are hereditary, so every prefix is pruned; connectivity is
    decided at full order.
    """
    if j == order:
        if not filt.connected_only or Graph(order, adj).is_connected():
            yield mask, adj
        return
    bit = 1 << j
    shift = edge_index(0, j)
    # triangle-free and bipartite graphs need s independent; reach[s] holds
    # the vertices with a neighbour in s
    independent = filt.triangle_free or filt.bipartite
    reach = [0]
    for i in range(j if independent else 0):
        reach += [r | adj[i] for r in reach]
    for s in range(1 << j):
        if independent and reach[s] & s:
            continue
        grown = tuple(row | bit if s >> i & 1 else row for i, row in enumerate(adj)) + (s,)
        if filt.bipartite and not is_bipartite(j + 1, grown):
            continue
        yield from labeled_graphs(order, filt, j + 1, grown, mask | s << shift)


def relabellings(g: Graph):
    """Yield the edge mask of g relabelled by each vertex permutation in turn."""
    bit = [[1 << edge_index(a, b) for b in range(g.order)] for a in range(g.order)]
    edges = list(g.edges())
    for p in permutations(range(g.order)):
        yield sum(bit[p[i]][p[j]] for i, j in edges)


def delete_vertices_mapped(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the complement of `vertices`, plus the index map.

    Surviving vertices are relabelled 0..k-1 preserving their original
    relative order; the returned tuple maps new index -> original vertex.
    """
    drop = 0
    for v in vertices:
        if not 0 <= v < g.order:
            raise IndexError(f"vertex {v} out of range for order {g.order}")
        drop |= 1 << v
    kept = tuple(v for v in range(g.order) if not (drop >> v) & 1)
    relabel = {old: new for new, old in enumerate(kept)}
    adj = [0] * len(kept)
    for new, old in enumerate(kept):
        m = g.adj[old] & ~drop
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            adj[new] |= 1 << relabel[w]
    return Graph(len(kept), tuple(adj)), kept
