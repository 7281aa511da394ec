"""Brute-force ground truth for dissociation sets.

A dissociation set is a vertex subset whose induced subgraph has maximum
degree at most one.  One scan of all 2^n subsets tests each dissociation set
for maximality by explicit single-vertex extension and tallies psi and phi'
over all of them -- intentionally naive, so the fast enumerator has an
independent referee.  Every scan runs under one wall-clock budget,
ORACLE_TIME_LIMIT seconds, read at call time, and raises TimeLimitError past
it rather than return a truncated answer.

The oracle and the enumerator both hand their vertex bitmasks to
DissociationFamily, which keeps them as masks in canonical order and decodes
a set into its sorted member tuple only when asked.  `_members` decodes a
mask below 2^32 (every caller is capped at ENUMERATION_ORDER_CAP = 32) by
four lookups in per-byte tables of member tuples, built once at import.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import and_, lshift, or_
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .graphs import Graph, TimeLimitError, UnsupportedSizeError

ORACLE_ORDER_CAP = 24
ORACLE_TIME_LIMIT = 60.0  # seconds per subset scan, read at call time

_T = TypeVar("_T")


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.order:
            raise IndexError(f"vertex {v} out of range for order {g.order}")
        mask |= 1 << v
    return mask


def _byte_tables(empty: _T, prepend: Callable[[int, _T], _T]) -> list[list[_T]]:
    """Four tables, one per byte position k, indexed by byte value b.  The
    entry for b prepends the vertices 8k + i with bit i of b set to `empty`,
    least vertex first: it is `prepend` of b's least vertex to the entry of b
    with that bit cleared, so the tables cost one call per entry."""
    tables = []
    for k in range(4):
        table = [empty]
        for b in range(1, 256):
            table.append(prepend(8 * k + (b & -b).bit_length() - 1, table[b & (b - 1)]))
        tables.append(table)
    return tables


# _M<k>[b]: the vertices of byte value b at byte position k, ascending
_M0, _M1, _M2, _M3 = _byte_tables((), lambda v, rest: (v, *rest))


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask below 2^32, ascending."""
    return _M0[mask & 255] + _M1[mask >> 8 & 255] + _M2[mask >> 16 & 255] + _M3[mask >> 24]


# _FLIP[b]: the complement of the byte b with its 8 bits in reverse order
_FLIP = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _flip(words: array) -> array:
    """Each 32-bit word as its complement, bit-reversed: flipping twice gives
    the word back.  Reversing the bits of every byte and then the byte order
    reverses the word on either endianness."""
    out = array("I", words.tobytes().translate(_FLIP))
    out.byteswap()
    return out


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
    Each set is held as a vertex bitmask below 2^32; iteration and `sets`
    decode the masks into sorted member tuples by table lookup (`_members`).
    Equality and hashing compare the order and the mask tuple."""

    source_order: int
    masks: tuple[int, ...]

    @classmethod
    def from_masks(cls, order: int, masks: Iterable[int]) -> "DissociationFamily":
        # One int key per set: its size above its flipped mask.  Among sets of
        # one size the least vertex where two differ is the highest differing
        # bit of the bit-reversed masks, and complementing puts the set that
        # holds it first, as the member lists order them.  The low 32 bits of
        # each sorted key flip back to its mask.
        unique = array("I", set(masks))  # 'I' is 32 bits on CPython's platforms
        keys = sorted(map(or_, map(lshift, map(int.bit_count, unique), repeat(32)), _flip(unique)))
        return cls(order, tuple(_flip(array("I", map(and_, keys, repeat(0xFFFFFFFF))))))

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_members, self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(_members, self.masks)

    def __contains__(self, item: Iterable[int]) -> bool:
        return tuple(sorted(set(item))) in self.sets


def _scan(g: Graph) -> tuple[list[int], int, int]:
    """One pass over all 2^n subsets: the maximal dissociation sets as
    ascending bitmasks, the dissociation number psi, and phi', the number of
    dissociation sets of size psi.  Raises TimeLimitError once the scan has
    run longer than ORACLE_TIME_LIMIT seconds, checked every 4096 subsets."""
    if g.order > ORACLE_ORDER_CAP:
        raise UnsupportedSizeError(
            f"brute-force oracle is capped at order {ORACLE_ORDER_CAP}, got {g.order}"
        )
    adj = g.adj
    time_limit = ORACLE_TIME_LIMIT
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


def enumerate_maximal_bruteforce(g: Graph) -> DissociationFamily:
    """Every maximal dissociation set of g, by scanning all 2^n subsets."""
    return DissociationFamily.from_masks(g.order, _scan(g)[0])


def dissociation_number(g: Graph) -> int:
    """Largest size of a dissociation set of g."""
    return _scan(g)[1]


def count_maximum_bruteforce(g: Graph) -> int:
    """Number of dissociation sets of maximum size."""
    return _scan(g)[2]
