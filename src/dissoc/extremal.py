"""Exhaustive desk-scale verification of dissociation-set extremal facts.

Sweeps generate one graph per isomorphism class of a given order, one vertex
at a time and only inside the requested class (triangle-free / bipartite /
connected), compute phi or phi' via the branching enumerator, and report the
maximum together with all attaining classes; the bounds suite runs the same
scan.  The verify_* operations package the checkable claims: closed-form
family values, the 10^(n/5) and 6^(n/4) bounds with their equality
characterizations, the per-pivot counting recurrences, and the path/cycle
bounds.

Bound checks are exact integer comparisons: phi <= 10^(n/5) is decided as
phi^5 <= 10^n, phi <= 6^(n/4) as phi^4 <= 6^n, and phi < 0.81 * 6^(n/4) as
100^4 * phi^4 < 81^4 * 6^n.  Floats appear only in failure messages.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from typing import Iterator, Sequence

from .branching import _pivot_partition, count, maximal_masks
from .canonical import _least, canonical_form
from .graph6 import serialize_graph6
from .graphs import (
    Graph,
    UnsupportedSizeError,
    check_enumeration_order,
    complete_bipartite_graph,
    cycle_graph,
    disjoint_union,
    edge_index,
    k_star_graph,
    path_graph,
)
from .oracle import _members

SWEEP_FULL_ORDER_CAP = 7
SWEEP_LONG_ORDER_CAP = 8
EDGE_PROBABILITIES = (0.2, 0.5, 0.8)


class SweepRefusedError(RuntimeError):
    """An order-8 sweep was requested without the explicit opt-in flag."""


def _within_general_bound(phi: int, order: int) -> bool:
    """phi <= 10^(n/5), exactly."""
    return phi ** 5 <= 10 ** order


def _within_triangle_free_bound(phi: int, order: int) -> bool:
    """phi <= 6^(n/4), exactly."""
    return phi ** 4 <= 6 ** order


def _below_path_bound(phi: int, order: int) -> bool:
    """phi < 0.81 * 6^(n/4), exactly."""
    return 100 ** 4 * phi ** 4 < 81 ** 4 * 6 ** order


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


def is_bipartite(order: int, adj: Sequence[int]) -> bool:
    color0 = 0
    color1 = 0
    seen = 0
    full = (1 << order) - 1
    while seen != full:
        start = (~seen & full) & -(~seen & full)
        frontier = start
        color0 |= start
        side = 0
        while frontier:
            seen |= frontier
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= adj[v]
            nxt &= ~seen
            side ^= 1
            if side:
                color1 |= nxt
            else:
                color0 |= nxt
            frontier = nxt
    for v in range(order):
        own = color0 if (color0 >> v) & 1 else color1
        if adj[v] & own:
            return False
    return True


@dataclass(frozen=True)
class SweepFilter:
    """Class restriction applied during a sweep.  Filters combine by AND;
    bipartiteness already implies triangle-freeness (asserted, not assumed)."""

    triangle_free: bool = False
    bipartite: bool = False
    connected_only: bool = False

    def admits(self, order: int, adj: Sequence[int]) -> bool:
        if self.triangle_free and not is_triangle_free(order, adj):
            return False
        if self.bipartite and not is_bipartite(order, adj):
            return False
        if self.connected_only and not Graph(order, tuple(adj)).is_connected():
            return False
        return True

    def label(self) -> str:
        parts = []
        if self.triangle_free:
            parts.append("triangle-free")
        if self.bipartite:
            parts.append("bipartite")
        if self.connected_only:
            parts.append("connected")
        return "+".join(parts) if parts else "all"


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [e for e in combinations(range(order), 2) if rng.random() < p]
    return Graph.from_edges(order, edges)


def random_bipartite_graph(rng: random.Random, order: int, p: float) -> Graph:
    side = [rng.randrange(2) for _ in range(order)]
    edges = [
        (i, j)
        for i, j in combinations(range(order), 2)
        if side[i] != side[j] and rng.random() < p
    ]
    return Graph.from_edges(order, edges)


# ---------------------------------------------------------------------------
# isomorphism classes by orderly generation
# ---------------------------------------------------------------------------

def _graphs(
    order: int, filt: SweepFilter, j: int = 0, adj: tuple[int, ...] = (), mask: int = 0, aut: int = 1
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (edge mask, adjacency, |Aut|) for one graph per isomorphism class
    of `order` that `filt` admits, namely its canonical labelling, among the
    classes whose first j vertices induce the canonical graph (mask, adj).

    Vertex j joins with a lower neighbourhood s, a subset of 0..j-1; its edges
    are the mask bits from edge_index(0, j) on, so s shifts in whole.  A child
    is kept only when it is its own least labelling (Read's orderly
    generation), so every class comes from one parent.  Both class filters
    are hereditary, so every prefix is pruned; connectivity is decided at
    full order.
    """
    if j == order:
        if not filt.connected_only or Graph(order, adj).is_connected():
            yield mask, adj, aut
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
        least = _least(j + 1, grown, stop_below=True)
        if least is not None:
            yield from _graphs(order, filt, j + 1, grown, mask | s << shift, least[1])


def _phi_pair(order: int, adj: Sequence[int]) -> tuple[int, int]:
    """(phi, phi') of one graph."""
    sizes = [m.bit_count() for m in maximal_masks(order, adj)]
    return len(sizes), sizes.count(max(sizes))


@dataclass
class _Best:
    """Running maximum of one quantity and the edge masks attaining it."""

    value: int = -1
    masks: list[int] = field(default_factory=list)

    def add(self, value: int, mask: int) -> None:
        if value > self.value:
            self.value, self.masks = value, [mask]
        elif value == self.value:
            self.masks.append(mask)

    def classes(self, order: int) -> list[str]:
        """Canonical graph6 strings of the attaining isomorphism classes; every
        witness is already its class's canonical labelling."""
        return sorted(serialize_mask(order, m) for m in self.masks)


def _scan(order: int, filt: SweepFilter) -> tuple[int, dict[str, _Best], list[int]]:
    """Scan every isomorphism class of `order` that `filt` admits: returns
    (labeled graphs admitted, the maxima of phi and phi' with the canonical
    edge masks of the classes attaining them, the canonical masks of the
    classes with phi' > phi)."""
    scanned = 0
    best = {"phi": _Best(), "phi_max": _Best()}
    inverted = []
    for mask, adj, aut in _graphs(order, filt):
        scanned += factorial(order) // aut  # labeled graphs in the class
        phi, phi_max = _phi_pair(order, adj)
        best["phi"].add(phi, mask)
        best["phi_max"].add(phi_max, mask)
        if phi_max > phi:
            inverted.append(mask)
    return scanned, best, inverted


@dataclass(frozen=True)
class ExtremalRecord:
    """Result of one sweep: the maximum value and its attaining classes.

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
    elapsed_ms: float = field(compare=False)  # timing is metadata, not a result

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "filter": self.filter.label(),
            "quantity": self.quantity,
            "max_value": self.max_value,
            "extremal_graph6": list(self.extremal_canonical),
            "graphs_scanned": self.graphs_scanned,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "violations": [],
        }


def _check_sweep_order(order: int, allow_long: bool) -> None:
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    if order > SWEEP_LONG_ORDER_CAP:
        raise UnsupportedSizeError(
            f"exhaustive sweeps are capped at order {SWEEP_LONG_ORDER_CAP}, got {order}"
        )
    if order > SWEEP_FULL_ORDER_CAP and not allow_long:
        n_graphs = 1 << (order * (order - 1) // 2)
        raise SweepRefusedError(
            f"a full sweep at order {order} covers {n_graphs:,} labeled graphs; "
            f"pass allow_long=True / --allow-long to run it anyway"
        )


def sweep(
    order: int,
    filt: SweepFilter = SweepFilter(),
    quantity: str = "phi",
    *,
    allow_long: bool = False,
) -> ExtremalRecord:
    """Scan every isomorphism class of `order` that `filt` admits and record
    the maximum quantity.

    graphs_scanned counts the labeled graphs admitted by the filter, as the
    sum of order!/|Aut| over the classes, and verify_asymptotic_bounds runs
    the same scan.
    """
    if quantity not in ("phi", "phi_max"):
        raise ValueError(f"quantity must be 'phi' or 'phi_max', got {quantity!r}")
    _check_sweep_order(order, allow_long)
    t0 = time.perf_counter()
    scanned, best, _ = _scan(order, filt)
    return ExtremalRecord(
        order=order,
        filter=filt,
        quantity=quantity,
        max_value=best[quantity].value,
        extremal_canonical=tuple(best[quantity].classes(order)),
        graphs_scanned=scanned,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    graph6: str | None = None

    def to_json_dict(self) -> dict:
        out = {"check": self.check, "detail": self.detail}
        if self.graph6 is not None:
            out["graph6"] = self.graph6
        return out


@dataclass
class VerificationReport:
    suite: str
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed_ms: float = 0.0
    details: dict = field(default_factory=dict)

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
    """Check the closed-form counts of the extremal families for t = 1..max_t."""
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

def _expected_general_equality_classes(order: int) -> set[str]:
    """Canonical forms of the graphs attaining 10^(n/5): unions of 5-cliques
    with at most two matching edges removed."""
    if order % 5:
        return set()
    t = order // 5
    out = set()
    for combo in combinations_with_replacement(range(3), t):
        out.add(canonical_form(disjoint_union(*(k_star_graph(5, i) for i in combo))))
    return out


def _expected_triangle_free_equality_classes(order: int) -> set[str]:
    """Canonical forms attaining 6^(n/4) among triangle-free graphs: unions of
    4-cycles."""
    if order % 4:
        return set()
    return {canonical_form(disjoint_union(*[cycle_graph(4)] * (order // 4)))}


def _expected_order8_classes() -> set[str]:
    return {
        canonical_form(disjoint_union(k_star_graph(4, i), k_star_graph(4, j)))
        for i, j in combinations_with_replacement(range(3), 2)
    }


def _scan_bounds_order(order: int, report: VerificationReport) -> list[dict]:
    """Bound checks, equality classes and extremal records at one order, from
    one scan of all graphs and one of the triangle-free graphs."""
    by_key = {}
    inverted: set[int] = set()
    for filt, within, check, base, root, expected_classes in (
        (SweepFilter(), _within_general_bound, "general", 10, 5,
         _expected_general_equality_classes),
        (SweepFilter(triangle_free=True), _within_triangle_free_bound, "triangle-free", 6, 4,
         _expected_triangle_free_equality_classes),
    ):
        label = filt.label()
        scanned, best, bad = _scan(order, filt)
        inverted.update(bad)
        # the bound is monotone in phi, so every graph meets it exactly when
        # the maximum does
        top = best["phi"]
        report.expect(
            within(top.value, order),
            f"{check}-bound",
            f"order {order}: {label} maximum phi={top.value} > {base}^(n/{root})",
            graph6=serialize_mask(order, top.masks[0]),
        )
        expected = expected_classes(order)
        for quantity, b in best.items():
            rec = by_key[label, quantity] = {
                "order": order,
                "filter": label,
                "quantity": quantity,
                "max_value": b.value,
                "extremal_graph6": b.classes(order),
                "graphs_scanned": scanned,
            }
            if order % root == 0:
                # the graphs attaining the bound are the maximum's witnesses
                # when the maximum reaches it, and none otherwise
                found = rec["extremal_graph6"] if b.value ** root == base ** order else []
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
    for mask in sorted(inverted):
        report.expect(
            False,
            "phi-max-le-phi",
            f"order {order}: phi' > phi",
            graph6=serialize_mask(order, mask),
        )

    stray = sum(
        not is_triangle_free(order, adj)
        for _, adj, _ in _graphs(order, SweepFilter(bipartite=True))
    )
    report.expect(
        not stray,
        "filter-soundness",
        f"order {order}: {stray} bipartite classes flagged as having triangles",
    )

    if order == 8:
        found = by_key["all", "phi"]
        report.expect(
            found["max_value"] == 36,
            "order8-maximum",
            f"order 8 unrestricted maximum is {found['max_value']}, expected 36",
        )
        report.expect(
            set(found["extremal_graph6"]) == _expected_order8_classes(),
            "order8-extremal-classes",
            f"order 8 extremal classes {found['extremal_graph6']} differ from the "
            f"two-block 4-clique family",
        )
    return list(by_key.values())


def serialize_mask(order: int, mask: int) -> str:
    return serialize_graph6(Graph.from_edge_mask(order, mask))


def verify_asymptotic_bounds(
    order_max: int = 6,
    *,
    allow_long: bool = False,
    seed: int = 0,
) -> VerificationReport:
    """Check phi <= 10^(n/5) and, for triangle-free graphs, phi <= 6^(n/4)
    on every labeled graph up to order_max, with equality exactly on the
    characterized families; phi' is held to the same bounds and to phi' <= phi.
    On top of the exhaustive range, 30 seeded random graphs at each order
    8..14 and 200 random bipartite graphs of order 12 are spot-checked.

    Each order runs the sweep's scan over all and over triangle-free graphs;
    the records equal sweep's, so triangle-free ones count only those graphs.
    """
    _check_sweep_order(order_max, allow_long)
    t0 = time.perf_counter()
    report = VerificationReport(suite="bounds")
    records = []
    for order in range(order_max + 1):
        records.extend(_scan_bounds_order(order, report))
    report.details["records"] = records

    rng = random.Random(seed)
    spot = 0
    for order in range(8, 15):
        for trial in range(30):
            g = random_graph(rng, order, EDGE_PROBABILITIES[trial % 3])
            result = count(g)
            spot += 1
            ok = (
                result.phi_max <= result.phi
                and _within_general_bound(result.phi, order)
                and (
                    not is_triangle_free(g.order, g.adj)
                    or _within_triangle_free_bound(result.phi, order)
                )
            )
            report.expect(
                ok,
                "spot-bound",
                f"random graph order {order} trial {trial}: phi={result.phi}, "
                f"phi'={result.phi_max} breaks a bound",
                graph6=serialize_graph6(g) if not ok else None,
            )
    order = 12
    for trial in range(200):
        g = random_bipartite_graph(rng, order, EDGE_PROBABILITIES[trial % 3])
        result = count(g)
        spot += 1
        report.expect(
            _within_triangle_free_bound(result.phi, order),
            "bipartite-spot-bound",
            f"random bipartite graph order {order} trial {trial}: "
            f"phi={result.phi} > 6^(n/4)",
        )
    report.details["spot_checks"] = spot
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
    """phi(P_n) < 0.81 * 6^(n/4) for n up to n_max, and phi(C_n) <= 6^(n/4)
    with equality exactly at n = 4."""
    check_enumeration_order(n_max)
    t0 = time.perf_counter()
    report = VerificationReport(suite="paths-cycles")
    paths = []
    for n in range(1, n_max + 1):
        phi = count(path_graph(n)).phi
        report.expect(
            _below_path_bound(phi, n),
            "path-bound",
            f"phi(P_{n})={phi} is not strictly below 0.81 * 6^(n/4)="
            f"{0.81 * (6 ** 0.25) ** n:.6f}",
        )
        paths.append({"n": n, "phi": phi})
    cycles = []
    for n in range(3, n_max + 1):
        phi = count(cycle_graph(n)).phi
        if n == 4:
            report.expect(phi == 6, "cycle-equality", f"phi(C_4)={phi}, expected exactly 6")
        else:
            report.expect(
                phi ** 4 < 6 ** n,
                "cycle-bound",
                f"phi(C_{n})={phi} is not strictly below 6^(n/4)={(6 ** 0.25) ** n:.6f}",
            )
        cycles.append({"n": n, "phi": phi})
    report.details["paths"] = paths
    report.details["cycles"] = cycles
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report
