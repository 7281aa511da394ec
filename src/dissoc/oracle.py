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
a set into its sorted member tuple only when asked.  The oracle hands over
one part, the enumerator one part per connected component.  `_members`
decodes a mask below 2^32 (every caller is capped at ENUMERATION_ORDER_CAP =
32) by four lookups in per-byte tables of member tuples, built once at
import.
"""

from __future__ import annotations

import time
from array import array
from functools import cached_property
from itertools import repeat
from operator import and_, lshift, neg, sub
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .graphs import Graph, TimeLimitError, UnsupportedSizeError, _Frozen

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


# _REV[b]: the byte b with its 8 bits in reverse order
_REV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _rev(words: array) -> array:
    """Each 32-bit word with its bits in reverse order.  Reversing the bits of
    every byte and then the byte order reverses the word on either
    endianness."""
    out = array("I", words.tobytes().translate(_REV))
    out.byteswap()
    return out


def _keys(masks: Iterable[int]) -> list[int]:
    """Each distinct mask's sort key, size << 32 minus its bit-reversed mask.
    Among sets of one size the least vertex where two differ is the highest
    differing bit of the reversed masks, so the set holding it has the lesser
    key, as the member lists order them.  Keys of sets on disjoint vertex sets
    add up to the key of their union."""
    unique = array("I", set(masks))  # 'I' is 32 bits on CPython's platforms
    return list(map(sub, map(lshift, map(int.bit_count, unique), repeat(32)), _rev(unique)))


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


class DissociationFamily(_Frozen):
    """All maximal dissociation sets of one graph, deduplicated and in
    canonical order: by size, then lexicographically by sorted member list.
    Each set is held as a vertex bitmask below 2^32; iteration and `sets`
    decode the masks into sorted member tuples by table lookup (`_members`),
    and a membership test compares masks without decoding.  `from_masks`
    builds the family of a disjoint union from its components' families.
    Equality and hashing compare the order and the mask tuple."""

    _fields = ("source_order", "masks")
    source_order: int
    masks: tuple[int, ...]

    def __init__(self, source_order: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "source_order", source_order)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_masks(cls, order: int, *parts: Iterable[int]) -> "DissociationFamily":
        """The family of every union of one set from each part, where the
        parts lie on disjoint vertex sets; with one part, that part's sets.

        Each part is deduplicated on its own, which is enough: unions of
        distinct sets from disjoint parts are distinct.  Keys add over parts
        (see `_keys`), so each set p of a new part turns the sorted keys so
        far into one sorted run, and the sort merges those runs.  A part of
        one set adds the same key to every union and so keeps their order:
        those parts fold into one key added last.  A key k decodes to the
        reversed mask -k & 0xFFFFFFFF."""
        base = 0  # the key of the one-set parts' union
        keys = None
        for part in map(_keys, parts):
            if len(part) == 1:
                base += part[0]
            elif keys is None:
                keys = sorted(part)
            else:
                keys = sorted([p + k for p in part for k in keys])
        if keys is None:
            keys = [base]
        elif base:
            keys = [k + base for k in keys]
        return cls(order, tuple(_rev(array("I", map(and_, map(neg, keys), repeat(0xFFFFFFFF))))))

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_members, self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(_members, self.masks)

    def __contains__(self, item: Iterable[int]) -> bool:
        mask = 0
        for v in item:
            if not 0 <= v < 32:
                return False  # no mask holds it
            mask |= 1 << v
        return mask in self.masks


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
