"""graph6 codec, short form only (order <= 62).

A graph6 line is ``chr(n + 63)`` followed by the column-major upper-triangle
adjacency bits x(0,1), x(0,2), x(1,2), x(0,3), ... packed six per byte, most
significant bit first, zero-padded in the last byte, every byte offset by 63.
A first byte of 126 (``~``) starts graph6's long form (n >= 63), which both
directions reject with the same message.
"""

from __future__ import annotations

from .graphs import Graph, edge_pairs

GRAPH6_ORDER_CAP = 62


class Graph6Error(ValueError):
    """Malformed, truncated or over-long graph6 input."""


def _check_short_form(order: int) -> None:
    if order > GRAPH6_ORDER_CAP:
        raise Graph6Error(f"short-form graph6 supports order <= {GRAPH6_ORDER_CAP}, got {order}")


def serialize_graph6(g: Graph) -> str:
    _check_short_form(g.order)
    out = [chr(g.order + 63)]
    group = 0
    nbits = 0
    for i, j in edge_pairs(g.order):
        group = (group << 1) | ((g.adj[i] >> j) & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(group + 63))
            group = 0
            nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + 63))
    return "".join(out)


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
    pairs = edge_pairs(order)
    for k in range(nbits):
        if (bits >> (nbits - 1 - k)) & 1:
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(order, tuple(adj))
