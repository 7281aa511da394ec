"""Independent reference values for the benchmark's output checks.

The path and cycle counts come from a transfer matrix over windows of five
consecutive vertices, written here without the package under test.  The
union graphs use the paper's closed forms; their dissociation numbers add
over components, so each component is small enough for the 2^n oracle.
"""

from __future__ import annotations

from collections import Counter
from itertools import product


def _center_ok(a: int, b: int, c: int, d: int, e: int) -> bool:
    """Window x[i-2..i+2] around vertex i on a path or cycle.

    An included vertex has at most one included neighbour; an excluded vertex
    is blocked, i.e. adding it would give some vertex two included neighbours.
    """
    if c:
        return b + d <= 1
    return bool((b and d) or (b and a) or (d and e))


def _path_sizes(n: int) -> Counter:
    """Sizes of all maximal dissociation sets of P_n (vertices outside are 0)."""
    states = {(0, 0, 0, 0): Counter({0: 1})}
    for k in range(n + 2):
        choices = (0, 1) if k < n else (0,)
        nxt: dict[tuple, Counter] = {}
        for window, sizes in states.items():
            for x in choices:
                if k >= 2 and not _center_ok(*window, x):
                    continue
                key = window[1:] + (x,)
                slot = nxt.setdefault(key, Counter())
                for size, ways in sizes.items():
                    slot[size + x] += ways
        states = nxt
    total: Counter = Counter()
    for sizes in states.values():
        total.update(sizes)
    return total


def _cycle_sizes(n: int) -> Counter:
    """Sizes of all maximal dissociation sets of C_n, n >= 8: fix the first
    four vertices, sweep the rest, then close the four windows that wrap."""
    if n < 8:
        raise ValueError("the cycle transfer matrix needs n >= 8")
    total: Counter = Counter()
    for first in product((0, 1), repeat=4):
        states = {first: Counter({sum(first): 1})}
        for _ in range(4, n):
            nxt: dict[tuple, Counter] = {}
            for window, sizes in states.items():
                for x in (0, 1):
                    if not _center_ok(*window, x):
                        continue
                    slot = nxt.setdefault(window[1:] + (x,), Counter())
                    for size, ways in sizes.items():
                        slot[size + x] += ways
            states = nxt
        for last, sizes in states.items():
            ring = last + first
            if all(_center_ok(*ring[k:k + 5]) for k in range(4)):
                total.update(sizes)
    return total


def counts_from_sizes(sizes: Counter) -> dict:
    psi = max(sizes)
    return {"phi": sum(sizes.values()), "phi_max": sizes[psi], "psi": psi}


def path_counts(n: int) -> dict:
    return counts_from_sizes(_path_sizes(n))


def cycle_counts(n: int) -> dict:
    return counts_from_sizes(_cycle_sizes(n))


# (phi, phi') from the paper's closed forms: phi(K5*) = 10, phi(K6*) = 15,
# phi(K4*) = 6 with phi' = phi for every matching deletion; phi(K3,3) = 11,
# phi'(K3,3) = 2, phi(C4) = phi'(C4) = 6; both multiply over components.
CLOSED_FORMS = {
    "5K5": (10 ** 5, 10 ** 5),
    "K33_4C4": (11 * 6 ** 4, 2 * 6 ** 4),
    "K5K5K6K4K4": (10 * 10 * 15 * 6 * 6, 10 * 10 * 15 * 6 * 6),
}

# the order-7 triangle-free sweep: labeled triangle-free graphs on 7 vertices
# (OEIS A006785), the largest phi among them and the number of classes attaining it
TRIANGLE_FREE_ORDER7 = {"admitted": 133_501, "max_phi": 18, "classes": 1}
