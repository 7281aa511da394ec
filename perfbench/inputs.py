"""Seeded workload inputs, written with the benchmark's own graph code.

Nothing here imports the package under test: the graphs, their graph6
encoding and the malformed lines are built from edge lists, so the program
only ever sees the files this module writes.
"""

from __future__ import annotations

import random
from itertools import combinations

STREAM_LINES = 3000
STREAM_ORDERS = range(8, 19)
STREAM_PROBABILITIES = (0.2, 0.5, 0.8)
# one malformed line in a hundred, cycling through the three kinds of damage
MALFORMED_EVERY = 100
MALFORMED_KINDS = ("bad-byte", "truncated", "order-33")


def encode_graph6(order: int, edges) -> str:
    """Short-form graph6: column-major upper-triangle bits, six per byte."""
    edge_set = {(min(i, j), max(i, j)) for i, j in edges}
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, order) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    ]
    return chr(order + 63) + "".join(body)


def decode_graph6(line: str) -> tuple[int, list[int]]:
    """(order, adjacency bitmasks) of a well-formed short-form graph6 line."""
    order = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        v = ord(ch) - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * order
    k = 0
    for j in range(1, order):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return order, adj


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def kstar_edges(m: int, i: int) -> list[tuple[int, int]]:
    """K_m minus the matching {0-1, 2-3, ...} of i edges."""
    removed = {(2 * k, 2 * k + 1) for k in range(i)}
    return [e for e in combinations(range(m), 2) if e not in removed]


def kmn_edges(m: int, n: int) -> list[tuple[int, int]]:
    return [(a, m + b) for a in range(m) for b in range(n)]


# each large-family graph as its components, (order, edges) per block
LARGE_FAMILY = {
    "P26": [(26, path_edges(26))],
    "C24": [(24, cycle_edges(24))],
    "5K5": [(5, kstar_edges(5, 0))] * 5,
    "K33_4C4": [(6, kmn_edges(3, 3))] + [(4, cycle_edges(4))] * 4,
    "K5K5K6K4K4": [
        (5, kstar_edges(5, 2)),
        (5, kstar_edges(5, 1)),
        (6, kstar_edges(6, 0)),
        (4, kstar_edges(4, 1)),
        (4, kstar_edges(4, 2)),
    ],
}


def disjoint_union(blocks) -> tuple[int, list[tuple[int, int]]]:
    """(order, edges) of the blocks laid out left to right."""
    order = 0
    edges: list[tuple[int, int]] = []
    for size, block_edges in blocks:
        edges.extend((order + i, order + j) for i, j in block_edges)
        order += size
    return order, edges


def _malformed(kind: str, rng: random.Random) -> str:
    if kind == "order-33":
        return encode_graph6(33, [])  # well formed, but above the enumeration cap
    good = encode_graph6(rng.choice(STREAM_ORDERS), [])
    if kind == "truncated":
        return good[:-1]
    pos = rng.randrange(1, len(good))
    return good[:pos] + "!" + good[pos:]  # '!' is byte 33, below the graph6 range


def write_large_family(path: str, seed: int) -> tuple[list[str], dict[int, str], dict[int, str]]:
    """Write the large-family file: the five graphs in a fixed order, with one
    malformed line of each kind inserted at seeded positions.

    Returns the lines, {line number: graph name} and {line number: damage
    kind}.  The graph order is fixed because the peak memory of `enumerate`
    depends on it; malformed lines are rejected before any search starts.
    """
    rng = random.Random(f"large-family:{seed}")
    lines: list[str] = [encode_graph6(*disjoint_union(blocks)) for blocks in LARGE_FAMILY.values()]
    kinds: list[str | None] = [None] * len(lines)
    for kind in MALFORMED_KINDS:
        pos = rng.randrange(len(lines) + 1)
        lines.insert(pos, _malformed(kind, rng))
        kinds.insert(pos, kind)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    names = iter(LARGE_FAMILY)
    graphs = {n: next(names) for n, kind in enumerate(kinds, 1) if kind is None}
    malformed = {n: kind for n, kind in enumerate(kinds, 1) if kind is not None}
    return lines, graphs, malformed


def write_stream(path: str, seed: int) -> tuple[list[str], dict[int, str]]:
    """Write the stream file; return its lines and {line number: damage kind}.

    Orders and edge probabilities are stratified (every (n, p) pair appears
    equally often) so that the total work varies little from seed to seed.
    """
    rng = random.Random(f"stream:{seed}")
    shape = [(n, p) for n in STREAM_ORDERS for p in STREAM_PROBABILITIES]
    bad_lines = sorted(rng.sample(range(1, STREAM_LINES + 1), STREAM_LINES // MALFORMED_EVERY))
    malformed = {line: MALFORMED_KINDS[k % len(MALFORMED_KINDS)] for k, line in enumerate(bad_lines)}
    lines = []
    for lineno in range(1, STREAM_LINES + 1):
        if lineno in malformed:
            lines.append(_malformed(malformed[lineno], rng))
            continue
        n, p = shape[lineno % len(shape)]
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        lines.append(encode_graph6(n, edges))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines, malformed
