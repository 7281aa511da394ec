"""Exhaustive desk-scale verification of dissociation-set extremal facts.

A class scan generates one graph per isomorphism class of a given order, one
vertex at a time and only inside the requested class (triangle-free /
connected), computes phi and phi' via the branching enumerator, and returns
one ExtremalRecord per quantity: the maximum together with all attaining
classes.  `sweep` returns the record of one quantity, and the bounds suite
reports both records of each scan as its details.records.  Each scan runs
under the wall-clock budget SWEEP_TIME_LIMIT and raises TimeLimitError past
it, so a runaway order fails loudly instead of hanging.
The verify_* operations package the checkable claims: closed-form family
values, the paper's two bounds with their equality characterizations, the
per-pivot counting recurrences, and the path/cycle bounds.

Results are plain records.  SweepFilter, ExtremalRecord and Violation are
typing.NamedTuples, equal and hashed by value, and VerificationReport is a
plain class that a suite fills as it checks.  An ExtremalRecord holds results
only, no timing: a caller that wants a sweep's time measures its own call.

Each bound, phi <= base^(n/root) over all or over triangle-free graphs, is
stated once, in _BOUNDS, and every check reads it there as an exact integer
comparison: phi^root <= base^n, and for the path lemma's phi < 0.81 *
base^(n/root), 100^root * phi^root < 81^root * base^n.  Floats appear only
in failure messages.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from .branching import _pivot_partition, count, maximal_masks
from .canonical import _least, _twins, canonical_form
from .graph6 import serialize_graph6
from .graphs import (
    Graph,
    TimeLimitError,
    check_enumeration_order,
    complete_bipartite_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    path_graph,
)
from .oracle import _members

SWEEP_TIME_LIMIT = 1200.0  # seconds per class scan, read at call time
EDGE_PROBABILITIES = (0.2, 0.5, 0.8)


# The paper's two bounds by filter label: phi <= base^(n/root), attained
# exactly by the disjoint unions of K_root minus a matching of a listed size,
# each block with phi = base (K5 minus 0, 1 or 2 edges, and C4 = K4*).
_BOUNDS = {"all": (10, 5, (0, 1, 2)), "triangle-free": (6, 4, (2,))}


def _within(label: str, phi: int, order: int) -> bool:
    """phi <= base^(n/root) for the bound of `label`, exactly."""
    base, root, _ = _BOUNDS[label]
    return phi ** root <= base ** order


def _below_path_bound(phi: int, order: int) -> bool:
    """phi < 0.81 * base^(n/root) for the triangle-free bound, exactly."""
    base, root, _ = _BOUNDS["triangle-free"]
    return 100 ** root * phi ** root < 81 ** root * base ** order


# ---------------------------------------------------------------------------
# graph-class predicates and random models
# ---------------------------------------------------------------------------

def is_triangle_free(order: int, adj: Sequence[int]) -> bool:
    for i in range(order):
        m = adj[i] >> (i + 1)
        while m:
            j = (m & -m).bit_length() + i
            m &= m - 1
            if adj[i] & adj[j]:
                return False
    return True


class SweepFilter(NamedTuple):
    """Class restriction applied during a sweep: the triangle-free graphs of
    the paper's second bound, the connected graphs, or both (filters combine
    by AND)."""

    triangle_free: bool = False
    connected_only: bool = False

    def label(self) -> str:
        parts = []
        if self.triangle_free:
            parts.append("triangle-free")
        if self.connected_only:
            parts.append("connected")
        return "+".join(parts) if parts else "all"


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [e for e in combinations(range(order), 2) if rng.random() < p]
    return Graph.from_edges(order, edges)


def _random_triangle_free_graph(rng: random.Random, order: int, p: float) -> Graph:
    """Walk the pairs as random_graph does and add each with probability p,
    unless it would close a triangle."""
    adj = [0] * order
    for i, j in combinations(range(order), 2):
        if rng.random() < p and not adj[i] & adj[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(order, tuple(adj))


# ---------------------------------------------------------------------------
# isomorphism classes by orderly generation
# ---------------------------------------------------------------------------

def _graphs(
    order: int, filt: SweepFilter, j: int = 0, adj: tuple[int, ...] = (), aut: int = 1
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (adjacency, |Aut|) for one graph per isomorphism class of `order`
    that `filt` admits, namely its canonical labelling, among the classes
    whose first j vertices induce the canonical graph adj.

    Vertex j joins with a lower neighbourhood s, a subset of 0..j-1: the
    edges of graph6's column j.  A child is kept only when it is its own
    least labelling (Read's orderly generation), so every class comes from
    one parent.  Two relabellings that must not beat the child are checked
    first, without a search: swapping j-1 and j, and swapping twins of the
    prefix.  Most children fail one of them, and only the rest go to
    `_least`.  The triangle-free filter is hereditary, so every prefix is
    pruned; connectivity is decided at full order.  |Aut| is what the scan
    needs to weigh a class by its order!/|Aut| labeled graphs.
    """
    if j == order:
        if not filt.connected_only or Graph(order, adj).is_connected():
            yield adj, aut
        return
    bit = 1 << j
    # triangle-free graphs need s independent; reach[s] holds the vertices
    # with a neighbour in s
    reach = [0]
    for i in range(j if filt.triangle_free else 0):
        reach += [r | adj[i] for r in reach]
    # swapping j-1 and j keeps columns 0..j-2 and makes column j-1 the part of
    # s below j-1, which beats col, adj[j-1]'s part there, when the least
    # vertex where the two differ lies in col (vertex 0 is a column's top bit)
    low = (bit >> 1) - 1
    col = adj[-1] & low if j else 0
    # swapping prefix twins v < w keeps columns 0..j-1 and lessens column j
    # when s holds v but not w; pairs holds v's bit with its twins above v
    pairs = [(1 << v, t & -(2 << v)) for v, t in enumerate(_twins(adj)) if t >> v + 1]
    for s in range(1 << j):
        if filt.triangle_free and reach[s] & s:
            continue
        d = (s & low) ^ col
        if col & d & -d or any(s & v and w & ~s for v, w in pairs):
            continue
        grown = tuple(row | bit if s >> i & 1 else row for i, row in enumerate(adj)) + (s,)
        least = _least(j + 1, grown, stop_below=True)
        if least is not None:
            yield from _graphs(order, filt, j + 1, grown, least[1])


def _phi_pair(order: int, adj: Sequence[int]) -> tuple[int, int]:
    """(phi, phi') of one graph."""
    sizes = [m.bit_count() for m in maximal_masks(order, adj)]
    return len(sizes), sizes.count(max(sizes))


class ExtremalRecord(NamedTuple):
    """Result of one class scan for one quantity: the maximum value and its
    attaining classes.

    extremal_canonical holds one canonical graph6 string per isomorphism
    class; the canonical string doubles as the class representative.
    graphs_scanned counts the labeled graphs the scanned classes stand for.
    """

    order: int
    filter: SweepFilter
    quantity: str
    max_value: int
    extremal_canonical: tuple[str, ...]
    graphs_scanned: int

    def to_json_dict(self) -> dict:
        """The record as `verify bounds` reports it in details.records."""
        return {
            "order": self.order,
            "filter": self.filter.label(),
            "quantity": self.quantity,
            "max_value": self.max_value,
            "extremal_graph6": list(self.extremal_canonical),
            "graphs_scanned": self.graphs_scanned,
        }


def _scan(order: int, filt: SweepFilter) -> tuple[dict[str, ExtremalRecord], list[str]]:
    """Scan every isomorphism class of `order` that `filt` admits: returns
    the records of phi and phi', keyed by quantity, and the canonical graph6
    strings of the classes with phi' > phi.  Every witness is already its
    class's canonical labelling.  Raises TimeLimitError once the scan has run
    longer than SWEEP_TIME_LIMIT seconds, checked before each class."""
    limit = SWEEP_TIME_LIMIT
    start = time.monotonic()
    scanned = 0
    top = {"phi": -1, "phi_max": -1}  # running maximum of each quantity
    adjs: dict[str, list[tuple[int, ...]]] = {"phi": [], "phi_max": []}  # attaining it
    inverted = []
    for adj, aut in _graphs(order, filt):
        if time.monotonic() - start > limit:
            raise TimeLimitError(
                f"order-{order} sweep of {filt.label()} graphs exceeded its {limit:.1f}s budget"
            )
        scanned += factorial(order) // aut  # labeled graphs in the class
        phi, phi_max = _phi_pair(order, adj)
        for q, value in (("phi", phi), ("phi_max", phi_max)):
            if value > top[q]:
                top[q], adjs[q] = value, [adj]
            elif value == top[q]:
                adjs[q].append(adj)
        if phi_max > phi:
            inverted.append(serialize_graph6(Graph(order, adj)))
    records = {
        q: ExtremalRecord(order, filt, q, top[q],
                          tuple(sorted(serialize_graph6(Graph(order, adj)) for adj in adjs[q])),
                          scanned)
        for q in top
    }
    return records, inverted


def _check_size(name: str, value: int, low: int, order: int) -> None:
    """Refuse a size below `low` and an order past the enumeration cap."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    check_enumeration_order(order)


def sweep(order: int, filt: SweepFilter = SweepFilter(), quantity: str = "phi") -> ExtremalRecord:
    """Scan every isomorphism class of `order` that `filt` admits and record
    the maximum quantity.

    graphs_scanned counts the labeled graphs admitted by the filter, as the
    sum of order!/|Aut| over the classes.  verify_asymptotic_bounds runs the
    same scan and reports these records.  The scan runs under
    SWEEP_TIME_LIMIT seconds and raises TimeLimitError past it, returning no
    record.
    """
    if quantity not in ("phi", "phi_max"):
        raise ValueError(f"quantity must be 'phi' or 'phi_max', got {quantity!r}")
    _check_size("order", order, 0, order)
    return _scan(order, filt)[0][quantity]


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    check: str
    detail: str
    graph6: str | None = None

    def to_json_dict(self) -> dict:
        out = {"check": self.check, "detail": self.detail}
        if self.graph6 is not None:
            out["graph6"] = self.graph6
        return out


class VerificationReport:
    """The checks and violations of one verify suite.  The suite sets
    elapsed_ms and fills details, and each report owns its own list and dict."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.checks = 0
        self.violations: list[Violation] = []
        self.elapsed_ms = 0.0
        self.details: dict = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def expect(self, ok: bool, check: str, detail: str, graph6: str | None = None) -> None:
        self.checks += 1
        if not ok:
            self.violations.append(Violation(check, detail, graph6))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": self.checks,
            "violations": [v.to_json_dict() for v in self.violations],
            "elapsed_ms": round(self.elapsed_ms, 3),
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# closed-form family values
# ---------------------------------------------------------------------------

def _kstar_variants(m: int) -> list[tuple[str, Graph]]:
    return [(f"K{m}*(i={i})", k_star_graph(m, i)) for i in range(m // 2 + 1)]


def _block_product(*blocks: tuple[list[tuple[str, Graph]], int]) -> list[tuple[str, Graph]]:
    """Every multiset of variants, given one (variants, count) pair per kind
    of interchangeable block."""
    out = []
    for picks in product(*(combinations_with_replacement(v, k) for v, k in blocks)):
        chosen = [block for pick in picks for block in pick]
        label = " + ".join(name for name, _ in chosen)
        out.append((label, disjoint_union(*(g for _, g in chosen))))
    return out


def _family_rows(max_t: int) -> list[tuple[str, int, Graph, int, bool]]:
    """(label, t, graph, expected phi, all blocks preserve phi'==phi)."""
    rows: list[tuple[str, int, Graph, int, bool]] = []
    c4 = cycle_graph(4)
    k23 = complete_bipartite_graph(2, 3)
    k33 = complete_bipartite_graph(3, 3)
    p3 = path_graph(3)
    k4s = _kstar_variants(4)
    k5s = _kstar_variants(5)
    k6s = _kstar_variants(6)

    for t in range(1, max_t + 1):
        tc4 = disjoint_union(*[c4] * t)
        rows.append((f"{t}C4", t, tc4, 6 ** t, True))
        rows.append(
            (f"K2,3 + {t - 1}C4", t, disjoint_union(k23, *[c4] * (t - 1)), 8 * 6 ** (t - 1), False)
        )
        rows.append(
            (f"K3,3 + {t - 1}C4", t, disjoint_union(k33, *[c4] * (t - 1)), 11 * 6 ** (t - 1), False)
        )
        rows.append((f"P3 + {t}C4", t, disjoint_union(p3, *[c4] * t), 3 * 6 ** t, False))

        for label, g in _block_product((k5s, t)):
            rows.append((label, t, g, 10 ** t, True))
        for label, g in _block_product((k6s, 1), (k5s, t - 1)):
            rows.append((label, t, g, 15 * 10 ** (t - 1), True))
        if t >= 2:
            for label, g in _block_product((k6s, 2), (k5s, t - 2)):
                rows.append((label, t, g, 225 * 10 ** (t - 2), True))
        for label, g in _block_product((k4s, 2), (k5s, t - 1)):
            rows.append((label, t, g, 36 * 10 ** (t - 1), True))
        for label, g in _block_product((k4s, 1), (k5s, t)):
            rows.append((label, t, g, 6 * 10 ** t, True))
    return rows


def verify_family_values(max_t: int = 3) -> VerificationReport:
    """Check the closed-form counts of the extremal families for t = 1..max_t,
    max_t >= 1.  The largest row, K4* + max_t K5*, has 5 max_t + 4 vertices,
    so a max_t past 5 raises UnsupportedSizeError before any row is built."""
    _check_size("max_t", max_t, 1, 5 * max_t + 4)
    t0 = time.perf_counter()
    report = VerificationReport(suite="families")
    table = []
    for label, t, g, expected, phi_max_equal in _family_rows(max_t):
        result = count(g)
        report.expect(
            result.phi == expected,
            "family-value",
            f"{label} (t={t}, n={g.order}): expected phi={expected}, got {result.phi}",
        )
        if phi_max_equal:
            report.expect(
                result.phi_max == result.phi,
                "family-phi-max",
                f"{label} (t={t}): expected phi'=phi={result.phi}, got phi'={result.phi_max}",
            )
        table.append(
            {
                "family": label,
                "t": t,
                "n": g.order,
                "expected": expected,
                "phi": result.phi,
                "phi_max": result.phi_max,
            }
        )
    report.details["table"] = table
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


# ---------------------------------------------------------------------------
# universal bounds and extremal characterizations
# ---------------------------------------------------------------------------

def _equality_classes(label: str, order: int) -> set[str]:
    """Canonical forms of the graphs of `order` attaining the bound of
    `label`: one union of order/root blocks per multiset of matching sizes."""
    _, root, sizes = _BOUNDS[label]
    if order % root:
        return set()
    return {
        canonical_form(disjoint_union(*(k_star_graph(root, i) for i in combo)))
        for combo in combinations_with_replacement(sizes, order // root)
    }


# max phi over all and over triangle-free graphs of order 0..9, by exhaustive sweeps
_PINNED_MAXIMA = {
    "all": (1, 1, 1, 3, 6, 10, 15, 21, 36, 60),
    "triangle-free": (1, 1, 1, 3, 6, 8, 11, 18, 36, 48),
}


def _scan_bounds_order(order: int, report: VerificationReport) -> list[ExtremalRecord]:
    """Bound checks, equality classes and extremal records at one order, from
    one scan of all graphs and one of the triangle-free graphs."""
    by_key = {}
    inverted: set[str] = set()
    for filt, check in ((SweepFilter(), "general"),
                        (SweepFilter(triangle_free=True), "triangle-free")):
        label = filt.label()
        base, root, _ = _BOUNDS[label]
        records, bad = _scan(order, filt)
        inverted.update(bad)
        # the bound is monotone in phi, so every graph meets it exactly when
        # the maximum does
        top = records["phi"]
        report.expect(
            _within(label, top.max_value, order),
            f"{check}-bound",
            f"order {order}: {label} maximum phi={top.max_value} > {base}^(n/{root})",
            graph6=top.extremal_canonical[0],
        )
        for pinned in _PINNED_MAXIMA[label][order:order + 1]:  # none past order 9
            report.expect(top.max_value == pinned, "pinned-maximum",
                          f"order {order}: {label} maximum phi={top.max_value}, expected {pinned}",
                          graph6=top.extremal_canonical[0])
        expected = _equality_classes(label, order)
        for quantity, rec in records.items():
            by_key[label, quantity] = rec
            if order % root == 0:
                # the graphs attaining the bound are the maximum's witnesses
                # when the maximum reaches it, and none otherwise
                found = list(rec.extremal_canonical) if rec.max_value ** root == base ** order else []
                report.expect(
                    set(found) == expected,
                    f"{check}-equality-classes",
                    f"order {order} {quantity}: {label} graphs attaining {base}^(n/{root}) "
                    f"are {found}, expected {sorted(expected)}",
                )

    # phi' <= phi is tested on every class in the scans: one violation per
    # class that breaks it, or one passing check
    if not inverted:
        report.expect(True, "phi-max-le-phi", f"order {order}: phi' <= phi")
    for g6 in sorted(inverted):
        report.expect(False, "phi-max-le-phi", f"order {order}: phi' > phi", graph6=g6)
    return list(by_key.values())


def verify_asymptotic_bounds(order_max: int = 6, *, seed: int = 0) -> VerificationReport:
    """Check both bounds of _BOUNDS, over all and over triangle-free graphs,
    on every labeled graph up to order_max, with equality exactly on the
    unions of their blocks; phi' is held to the same bounds and to phi' <= phi,
    and the maximum phi at each order up to 9 to its pinned value.
    On top of the exhaustive range, 30 seeded G(n, p) graphs at each order
    8..14 and 200 seeded random triangle-free graphs of order 12 are
    spot-checked: phi' <= phi, and phi within the general bound and, for a
    triangle-free graph, within the triangle-free bound.

    Each order runs the sweep's scan over all and over triangle-free graphs;
    the records equal sweep's, so triangle-free ones count only those graphs.
    Each scan runs under SWEEP_TIME_LIMIT seconds and raises TimeLimitError
    past it, returning no report.
    """
    _check_size("order", order_max, 0, order_max)
    t0 = time.perf_counter()
    report = VerificationReport(suite="bounds")
    report.details["records"] = [
        rec.to_json_dict()
        for order in range(order_max + 1)
        for rec in _scan_bounds_order(order, report)
    ]

    # (model, generator, order, trial), drawn in this order from one rng
    draws = [("random graph", random_graph, order, trial)
             for order in range(8, 15) for trial in range(30)]
    draws += [("random triangle-free graph", _random_triangle_free_graph, 12, trial)
              for trial in range(200)]
    rng = random.Random(seed)
    for model, generate, order, trial in draws:
        g = generate(rng, order, EDGE_PROBABILITIES[trial % 3])
        result = count(g)
        labels = _BOUNDS if is_triangle_free(g.order, g.adj) else ("all",)
        ok = result.phi_max <= result.phi and all(
            _within(label, result.phi, order) for label in labels)
        report.expect(
            ok,
            "spot-bound",
            f"{model} order {order} trial {trial}: phi={result.phi}, "
            f"phi'={result.phi_max} breaks a bound",
            graph6=serialize_graph6(g) if not ok else None,
        )
    report.details["spot_checks"] = len(draws)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


# ---------------------------------------------------------------------------
# counting recurrences
# ---------------------------------------------------------------------------

def _phi_without(g: Graph, drop: int) -> int:
    """phi(G - S) for the vertex mask `drop` of S, searched in place on g."""
    return len(maximal_masks(g.order, g.adj, ((1 << g.order) - 1) & ~drop))


def _check_pivot_recurrence(g: Graph, report: VerificationReport, g6: str) -> None:
    """Per-pivot partition bounds: each part of the split is dominated by the
    count of the matching vertex-deleted subgraph."""
    adj = g.adj
    family = maximal_masks(g.order, adj)
    phi = len(family)
    closed = [adj[v] | 1 << v for v in range(g.order)]
    for v in range(g.order):
        excluded, isolated, paired = _pivot_partition(family, adj, v)
        phi_without = _phi_without(g, 1 << v)
        phi_isolated = _phi_without(g, closed[v])
        paired_sum = sum(_phi_without(g, closed[v] | closed[u]) for u in _members(adj[v]))

        report.expect(
            excluded + isolated + paired == phi,
            "pivot-partition-total",
            f"{g6} v={v}: partition parts sum to {excluded + isolated + paired}, phi={phi}",
            graph6=g6,
        )
        report.expect(
            excluded <= phi_without,
            "pivot-excluded-part",
            f"{g6} v={v}: excluded part {excluded} > phi(G-v)={phi_without}",
            graph6=g6,
        )
        report.expect(
            isolated <= phi_isolated,
            "pivot-degree0-part",
            f"{g6} v={v}: isolated part {isolated} > phi(G-N[v])={phi_isolated}",
            graph6=g6,
        )
        report.expect(
            paired <= paired_sum,
            "pivot-degree1-part",
            f"{g6} v={v}: paired part {paired} > sum over neighbours {paired_sum}",
            graph6=g6,
        )
        dominated = any(not closed[w] & ~closed[v] for w in _members(adj[v]))
        if dominated:
            # some neighbour's closed neighbourhood sits inside N[v]: v can
            # never be isolated in a maximal set, and the middle term drops
            report.expect(
                isolated == 0,
                "pivot-dominated-degree0",
                f"{g6} v={v}: dominated pivot has isolated part {isolated}",
                graph6=g6,
            )
            report.expect(
                phi <= phi_without + paired_sum,
                "pivot-recurrence-strong",
                f"{g6} v={v}: phi={phi} > {phi_without} + {paired_sum}",
                graph6=g6,
            )
        report.expect(
            phi <= phi_without + phi_isolated + paired_sum,
            "pivot-recurrence",
            f"{g6} v={v}: phi={phi} > {phi_without + phi_isolated + paired_sum}",
            graph6=g6,
        )


def _check_leaf_recurrence(
    g: Graph, w: int, leaves: tuple[int, ...], report: VerificationReport, g6: str
) -> None:
    """Bound at a support vertex w of one leaf (the leaf recurrence) or two
    leaves (the twin-leaf recurrence): branch on the status of w."""
    adj = g.adj
    closed_w = adj[w] | 1 << w
    rhs = (
        sum(
            _phi_without(g, closed_w | adj[u] | 1 << u)
            for u in _members(adj[w] & ~(1 << leaves[0]))
        )
        + _phi_without(g, 1 << w | sum(1 << v for v in leaves))
        + _phi_without(g, closed_w)
    )
    phi = _phi_without(g, 0)
    if len(leaves) == 1:
        check, where = "leaf-recurrence", f"leaf v={leaves[0]}"
    else:
        check, where = "twin-leaf-recurrence", f"w={w} leaves {leaves[0]},{leaves[1]}"
    report.expect(phi <= rhs, check, f"{g6} {where}: phi={phi} > {rhs}", graph6=g6)


def verify_recurrences(pivot_trials: int = 200, seed: int = 0) -> VerificationReport:
    """Check the per-pivot, leaf, and twin-leaf counting recurrences on seeded
    random graphs, and multiplicativity of phi over disjoint unions.  The
    pivot recurrence runs on pivot_trials graphs of order 4..10; the leaf,
    twin-leaf and union checks run on 100, 50 and 100 graphs."""
    t0 = time.perf_counter()
    report = VerificationReport(suite="recurrences")
    rng = random.Random(seed)

    for trial in range(pivot_trials):
        g = random_graph(rng, rng.randint(4, 10), EDGE_PROBABILITIES[trial % 3])
        _check_pivot_recurrence(g, report, serialize_graph6(g))

    for trial in range(100):
        base = random_graph(rng, rng.randint(3, 9), EDGE_PROBABILITIES[trial % 3])
        w = rng.randrange(base.order)
        v = base.order
        g = Graph.from_edges(base.order + 1, list(base.edges()) + [(w, v)])
        _check_leaf_recurrence(g, w, (v,), report, serialize_graph6(g))

    for trial in range(50):
        base = random_graph(rng, rng.randint(2, 8), EDGE_PROBABILITIES[trial % 3])
        w = rng.randrange(base.order)
        v1, v2 = base.order, base.order + 1
        g = Graph.from_edges(base.order + 2, list(base.edges()) + [(w, v1), (w, v2)])
        _check_leaf_recurrence(g, w, (v1, v2), report, serialize_graph6(g))

    for trial in range(100):
        a = random_graph(rng, rng.randint(1, 8), EDGE_PROBABILITIES[trial % 3])
        b = random_graph(rng, rng.randint(1, 8), EDGE_PROBABILITIES[(trial + 1) % 3])
        u = disjoint_union(a, b)
        phi_u, phi_a, phi_b = (_phi_without(x, 0) for x in (u, a, b))
        report.expect(
            phi_u == phi_a * phi_b,
            "union-multiplicativity",
            f"orders {a.order}+{b.order}: phi(union)={phi_u} != {phi_a} * {phi_b}",
            graph6=serialize_graph6(u),
        )

    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


# ---------------------------------------------------------------------------
# path and cycle bounds
# ---------------------------------------------------------------------------

def verify_path_cycle_bounds(n_max: int = 20) -> VerificationReport:
    """phi(P_n) < 0.81 * base^(n/root) for n up to n_max, and phi(C_n) <=
    base^(n/root) with equality exactly at n = root, for the triangle-free
    bound of _BOUNDS.  An n_max below 1 raises ValueError."""
    _check_size("n_max", n_max, 1, n_max)
    t0 = time.perf_counter()
    report = VerificationReport(suite="paths-cycles")
    base, root, _ = _BOUNDS["triangle-free"]
    growth = base ** (1 / root)  # per-vertex growth of the bound, for messages
    paths = []
    for n in range(1, n_max + 1):
        phi = count(path_graph(n)).phi
        report.expect(
            _below_path_bound(phi, n),
            "path-bound",
            f"phi(P_{n})={phi} is not strictly below 0.81 * {base}^(n/{root})="
            f"{0.81 * growth ** n:.6f}",
        )
        paths.append({"n": n, "phi": phi})
    cycles = []
    for n in range(3, n_max + 1):
        phi = count(cycle_graph(n)).phi
        if n == root:
            report.expect(phi == base, "cycle-equality", f"phi(C_{n})={phi}, expected exactly {base}")
        else:
            report.expect(
                phi ** root < base ** n,
                "cycle-bound",
                f"phi(C_{n})={phi} is not strictly below {base}^(n/{root})={growth ** n:.6f}",
            )
        cycles.append({"n": n, "phi": phi})
    report.details["paths"] = paths
    report.details["cycles"] = cycles
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report
