"""Small-graph core: bitmask adjacency and the named graph families.

Graphs are immutable and live on vertex indices 0..order-1.  Adjacency is
stored as one bitmask per vertex (bit j of ``adj[i]`` set iff ij is an edge),
which keeps neighbourhood algebra down to integer bit operations.  All
counting and enumeration entry points cap the order at
``ENUMERATION_ORDER_CAP``; the graph type itself supports anything the graph6
short form can express (order <= 62).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

ENUMERATION_ORDER_CAP = 32


class UnsupportedSizeError(ValueError):
    """The graph is too large for the requested operation."""


class TimeLimitError(RuntimeError):
    """A scan exceeded its wall-clock budget; no partial answer is returned."""


class FamilySpecError(ValueError):
    """A family spec is malformed or its parameters violate a construction constraint."""


class _Frozen:
    """Base of the package's immutable value types, in place of a frozen
    dataclass (importing dataclasses also imports inspect, ast, dis and
    tokenize).  A subclass names its fields in _fields and sets each once, in
    __init__, through object.__setattr__.  Two objects of one class are equal,
    and hash alike, when their fields are; repr and pickling go by the fields."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Graph(_Frozen):
    """Immutable simple undirected graph with bitmask adjacency rows.  Every
    construction runs the validation hook __post_init__."""

    __slots__ = _fields = ("order", "adj")
    order: int
    adj: tuple[int, ...]

    def __init__(self, order: int, adj: tuple[int, ...]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", adj)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = self.order
        if n < 0:
            raise ValueError("graph order must be nonnegative")
        if len(self.adj) != n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for order {n}")
        for i, row in enumerate(self.adj):
            if row >> n:
                raise ValueError(f"adjacency row {i} references vertices >= {n}")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(n):
            m = self.adj[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * order
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < order and 0 <= j < order):
                raise ValueError(f"edge ({i},{j}) outside vertex range 0..{order - 1}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(order, tuple(adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.order):
            m = self.adj[i] >> (i + 1)
            while m:
                j = (m & -m).bit_length() + i
                m &= m - 1
                yield (i, j)

    def components(self) -> list[int]:
        """Vertex bitmasks of the connected components, by least vertex."""
        seen = 0
        full = (1 << self.order) - 1
        parts = []
        while seen != full:
            start = (~seen & full) & -(~seen & full)
            frontier = start
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                m = frontier
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
            seen |= comp
            parts.append(comp)
        return parts

    def is_connected(self) -> bool:
        return self.order <= 1 or len(self.components()) == 1


# Named families.  Vertex labelling conventions: paths/cycles run 0-1-2-...,
# complete bipartite puts the m-side first, k_star deletes the matching
# {0-1, 2-3, ...}, and disjoint unions concatenate vertex ranges left to right.

def path_graph(n: int) -> Graph:
    if n < 1:
        raise FamilySpecError(f"path requires n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilySpecError(f"cycle requires n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise FamilySpecError(f"complete requires n >= 1, got {n}")
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise FamilySpecError(f"complete_bipartite requires both parts >= 1, got {m},{n}")
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def k_star_graph(m: int, i: int) -> Graph:
    """K_m with the first i matching edges {0-1, 2-3, ...} deleted.

    Any deletion of i pairwise non-adjacent edges from K_m gives an isomorphic
    graph, so the lexicographically first matching stands for the class.
    """
    if m < 1:
        raise FamilySpecError(f"k_star requires m >= 1, got {m}")
    if not 0 <= i <= m // 2:
        raise FamilySpecError(
            f"k_star deleted edges must form a matching: need 0 <= i <= {m // 2}, got {i}"
        )
    removed = {(2 * k, 2 * k + 1) for k in range(i)}
    return Graph.from_edges(m, (e for e in combinations(range(m), 2) if e not in removed))


def disjoint_union(*graphs: Graph) -> Graph:
    order = sum(g.order for g in graphs)
    adj: list[int] = []
    offset = 0
    for g in graphs:
        adj.extend(row << offset for row in g.adj)
        offset += g.order
    return Graph(order, tuple(adj))


def check_enumeration_order(order: int) -> None:
    """Reject graphs beyond the enumeration cap."""
    if order > ENUMERATION_ORDER_CAP:
        raise UnsupportedSizeError(
            f"order {order} exceeds the enumeration cap of {ENUMERATION_ORDER_CAP}"
        )
