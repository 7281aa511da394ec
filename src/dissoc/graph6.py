"""graph6 codec, short form only (order <= 62).

A graph6 line is ``chr(n + 63)`` followed by the column-major upper-triangle
adjacency bits x(0,1), x(0,2), x(1,2), x(0,3), ... packed six per byte, most
significant bit first, zero-padded in the last byte, every byte offset by 63.
Column k packs the pairs (i, k), i = 0 most significant, so the data bits are
the columns concatenated and comparing column lists compares graph6 strings;
canonical._least searches over these columns.  `_spell` is the one writer of
data bytes and `parse_graph6` the one reader; no other module knows the pair
order.  A first byte of 126 (``~``) starts graph6's long form (n >= 63), which
both directions reject with the same message.
"""

from __future__ import annotations

from .graphs import Graph

GRAPH6_ORDER_CAP = 62


class Graph6Error(ValueError):
    """Malformed, truncated or over-long graph6 input."""


def _check_short_form(order: int) -> None:
    if order > GRAPH6_ORDER_CAP:
        raise Graph6Error(f"short-form graph6 supports order <= {GRAPH6_ORDER_CAP}, got {order}")


def _columns(order: int, adj: tuple[int, ...]) -> list[int]:
    """graph6's columns of adj: column k packs the pairs (i, k), i = 0 most
    significant."""
    return [sum((adj[k] >> i & 1) << (k - 1 - i) for i in range(k)) for k in range(order)]


def _spell(order: int, columns: list[int]) -> str:
    """The graph6 line of an `order`-vertex graph given by its columns."""
    _check_short_form(order)
    bits = 0
    for k, column in enumerate(columns):
        bits = bits << k | column
    nbits = order * (order - 1) // 2
    end = nbits + -nbits % 6  # zero bits fill the last byte
    bits <<= end - nbits
    return chr(order + 63) + "".join(chr((bits >> b & 63) + 63) for b in range(end - 6, -1, -6))


def serialize_graph6(g: Graph) -> str:
    return _spell(g.order, _columns(g.order, g.adj))


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; a rejected byte is named by its value."""
    if not text:
        raise Graph6Error("empty graph6 input")
    codes = list(text) if isinstance(text, bytes) else [ord(c) for c in text]
    for pos, c in enumerate(codes):
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} at position {pos} outside the graph6 range 63..126")
    order = codes[0] - 63
    _check_short_form(order)  # a leading "~" (order 63) is the long form
    nbits = order * (order - 1) // 2
    expect = (nbits + 5) // 6
    body = codes[1:]
    if len(body) != expect:
        what = "truncated graph6 input" if len(body) < expect else "graph6 input too long"
        raise Graph6Error(f"{what}: order {order} needs {expect} data bytes, got {len(body)}")
    bits = 0
    for c in body:
        bits = (bits << 6) | (c - 63)
    pad = expect * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits in final graph6 byte")
    bits >>= pad
    adj = [0] * order
    for k in range(order - 1, 0, -1):  # the last column is the lowest k bits
        column = bits & ((1 << k) - 1)
        bits >>= k
        kb = 1 << k
        while column:  # bit k-1-i of column k is the pair (i, k)
            b = column & -column
            column ^= b
            i = k - b.bit_length()
            adj[i] |= kb
            adj[k] |= 1 << i
    return Graph(order, tuple(adj))
