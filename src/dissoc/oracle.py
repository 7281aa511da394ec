"""Brute-force ground truth for dissociation sets.

A dissociation set is a vertex subset whose induced subgraph has maximum
degree at most one.  One scan of all 2^n subsets tests each dissociation set
for maximality by explicit single-vertex extension and tallies psi and phi'
over all of them -- intentionally naive, so the fast enumerator has an
independent referee.  Both hand their vertex bitmasks to DissociationFamily,
which decodes each set once, into a sorted tuple.  `_members` decodes a mask
below 2^32 (every caller is capped at ENUMERATION_ORDER_CAP = 32) by four
lookups in per-byte tables of member tuples, built once at import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, TimeLimitError, UnsupportedSizeError

ORACLE_ORDER_CAP = 24
DEFAULT_TIME_LIMIT = 60.0


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.order:
            raise IndexError(f"vertex {v} out of range for order {g.order}")
        mask |= 1 << v
    return mask


# _M<k>[b]: the vertices of byte value b at byte position k, ascending
_M0, _M1, _M2, _M3 = (
    [tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256)] for k in range(4)
)


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask below 2^32, ascending."""
    return _M0[mask & 255] + _M1[mask >> 8 & 255] + _M2[mask >> 16 & 255] + _M3[mask >> 24]


def _is_dissociation_mask(adj: Sequence[int], f: int) -> bool:
    m = f
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if (adj[v] & f).bit_count() > 1:
            return False
    return True


def is_dissociation(g: Graph, f: Iterable[int]) -> bool:
    """True iff every vertex of f has at most one neighbour inside f."""
    return _is_dissociation_mask(g.adj, _mask_of(g, f))


def is_maximal(g: Graph, f: Iterable[int]) -> bool:
    """True iff no single vertex can be added to the dissociation set f.

    Raises ValueError when f is not a dissociation set of g.
    """
    fm = _mask_of(g, f)
    if not _is_dissociation_mask(g.adj, fm):
        raise ValueError("is_maximal requires a dissociation set")
    for w in range(g.order):
        if not (fm >> w) & 1 and _is_dissociation_mask(g.adj, fm | (1 << w)):
            return False
    return True


@dataclass(frozen=True)
class DissociationFamily:
    """All maximal dissociation sets of one graph, deduplicated and in
    canonical order: by size, then lexicographically by sorted member list.
    Each set is held as its sorted member tuple, which `from_masks` decodes
    from a vertex bitmask below 2^32 by table lookup (`_members`)."""

    source_order: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_masks(cls, order: int, masks: Iterable[int]) -> "DissociationFamily":
        members = sorted(map(_members, set(masks)))
        members.sort(key=len)  # stable, so each size stays lexicographic
        return cls(order, tuple(members))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sets)

    def __contains__(self, item: Iterable[int]) -> bool:
        return tuple(sorted(set(item))) in self.sets


def _scan(g: Graph, time_limit: float) -> tuple[list[int], int, int]:
    """One pass over all 2^n subsets: the maximal dissociation sets as
    ascending bitmasks, the dissociation number psi, and phi', the number of
    dissociation sets of size psi."""
    if g.order > ORACLE_ORDER_CAP:
        raise UnsupportedSizeError(
            f"brute-force oracle is capped at order {ORACLE_ORDER_CAP}, got {g.order}"
        )
    adj = g.adj
    deadline = time.monotonic() + time_limit
    maximal = []
    psi = phi_max = 0
    for f in range(1 << g.order):
        if f & 0xFFF == 0 and time.monotonic() > deadline:
            raise TimeLimitError(
                f"oracle subset scan exceeded {time_limit:.1f}s at order {g.order}"
            )
        if not _is_dissociation_mask(adj, f):
            continue
        c = f.bit_count()
        if c > psi:
            psi, phi_max = c, 1
        elif c == psi:
            phi_max += 1
        for w in range(g.order):
            if not (f >> w) & 1 and _is_dissociation_mask(adj, f | (1 << w)):
                break
        else:
            maximal.append(f)
    return maximal, psi, phi_max


def enumerate_maximal_bruteforce(
    g: Graph, time_limit: float = DEFAULT_TIME_LIMIT
) -> DissociationFamily:
    """Every maximal dissociation set of g, by scanning all 2^n subsets."""
    return DissociationFamily.from_masks(g.order, _scan(g, time_limit)[0])


def dissociation_number(g: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> int:
    """Largest size of a dissociation set of g."""
    return _scan(g, time_limit)[1]


def count_maximum_bruteforce(g: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> int:
    """Number of dissociation sets of maximum size."""
    return _scan(g, time_limit)[2]
