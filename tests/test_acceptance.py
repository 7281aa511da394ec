"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
carry the same conditions, so the suite is green exactly when every criterion
holds.
"""

import random

import pytest

from dissoc import (
    Graph,
    SweepFilter,
    SweepRefusedError,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    count,
    cycle_graph,
    disjoint_union,
    enumerate_maximal,
    enumerate_maximal_bruteforce,
    k_star_graph,
    path_graph,
    sweep,
    verify_asymptotic_bounds,
    verify_family_values,
    verify_path_cycle_bounds,
    verify_recurrences,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def prism_graph() -> Graph:
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def test_criterion_1_reference_counts():
    """Exact counts on the six reference graphs, zero tolerance."""
    fixtures = [
        ("K5", complete_graph(5), 10),
        ("C4", cycle_graph(4), 6),
        ("K2,3", complete_bipartite_graph(2, 3), 8),
        ("K3,3", complete_bipartite_graph(3, 3), 11),
        ("prism", prism_graph(), 9),
        ("P3", path_graph(3), 3),
    ]
    got = {name: count(g).phi for name, g, _ in fixtures}
    ok = all(got[name] == want for name, _, want in fixtures)
    _report(1, ok, f"fixture counts {got}")
    for name, _, want in fixtures:
        assert got[name] == want, f"phi({name}) = {got[name]}, expected {want}"


def test_criterion_2_closed_form_family_table():
    """Closed-form family values for t = 1..3, every allowed matching-deletion
    variant included, exact integer equality."""
    report = verify_family_values(max_t=3)
    rows = report.details["table"]
    # every one of the eight listed family shapes must actually be in the table
    shapes = [
        ("1C4", 6), ("2C4", 36), ("3C4", 216),
        ("K2,3 + 0C4", 8), ("K2,3 + 2C4", 8 * 36),
        ("K3,3 + 1C4", 66), ("P3 + 3C4", 3 * 216),
        ("K5*(i=0)", 10), ("K6*(i=3)", 15),
        ("K6*(i=0) + K5*(i=0)", 150),
        ("K4*(i=0) + K4*(i=0) + K5*(i=0)", 360),
        ("K4*(i=2) + K5*(i=1)", 60),
        ("K4*(i=0) + K5*(i=0) + K5*(i=0)", 600),
    ]
    by_family = {r["family"]: r for r in rows}
    ok = report.passed and all(
        name in by_family and by_family[name]["phi"] == want for name, want in shapes
    )
    _report(2, ok, f"{len(rows)} family rows checked, {len(report.violations)} violations")
    assert report.passed, report.violations[:5]
    for name, want in shapes:
        assert by_family[name]["phi"] == want, (name, want, by_family.get(name))


def test_criterion_3_exhaustive_extremal_sweeps():
    """Sweep maxima and exact extremal class sets at orders 4..7."""
    expectations = [
        (4, SweepFilter(triangle_free=True), 6, {canonical_form(cycle_graph(4))}),
        (5, SweepFilter(triangle_free=True), 8, {canonical_form(complete_bipartite_graph(2, 3))}),
        (6, SweepFilter(triangle_free=True), 11, {canonical_form(complete_bipartite_graph(3, 3))}),
        (7, SweepFilter(triangle_free=True), 18,
         {canonical_form(disjoint_union(path_graph(3), cycle_graph(4)))}),
        (5, SweepFilter(), 10, {canonical_form(k_star_graph(5, i)) for i in range(3)}),
    ]
    records = [(e, sweep(e[0], e[1])) for e in expectations]
    ok = all(
        rec.max_value == want_max and set(rec.extremal_canonical) == want_classes
        for (_, _, want_max, want_classes), rec in records
    )
    _report(3, ok, "sweeps " + str(
        [(o, f.label(), rec.max_value, len(rec.extremal_canonical))
         for (o, f, _, _), rec in records]
    ))
    for (order, filt, want_max, want_classes), rec in records:
        assert rec.max_value == want_max, (order, filt.label(), rec.max_value)
        assert set(rec.extremal_canonical) == want_classes, (order, filt.label())


def test_criterion_4_universal_bounds_order_6():
    """phi <= 10^(n/5) everywhere, phi <= 6^(n/4) when triangle-free, and
    phi' <= phi, over every labeled graph with n <= 6; zero violations."""
    report = verify_asymptotic_bounds(order_max=6)
    ok = report.passed
    _report(4, ok, f"{report.checks} checks, {len(report.violations)} violations, "
                   f"{report.details['spot_checks']} randomized spot checks")
    assert ok, report.violations[:5]


def test_criterion_5_oracle_equivalence():
    """Branching enumerator equals the brute-force oracle: exhaustively for
    n <= 5, and on 500 seeded random graphs with 6 <= n <= 12."""
    mismatches = 0
    graphs_checked = 0
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            graphs_checked += 1
            if enumerate_maximal(g) != enumerate_maximal_bruteforce(g):
                mismatches += 1
    rng = random.Random(20240901)
    for trial in range(500):
        n = 6 + trial % 7
        g = Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        graphs_checked += 1
        if enumerate_maximal(g) != enumerate_maximal_bruteforce(g):
            mismatches += 1
    ok = mismatches == 0
    _report(5, ok, f"{graphs_checked} graphs compared, {mismatches} mismatches")
    assert ok


def test_criterion_6_recurrence_suite():
    """Pivot-partition recurrences on 200 random graphs (every vertex), leaf
    recurrence on 100 instances, twin-leaf on 50, multiplicativity on 100."""
    report = verify_recurrences(pivot_trials=200, seed=42)
    ok = report.passed
    _report(6, ok, f"{report.checks} inequality checks, {len(report.violations)} violations")
    assert ok, report.violations[:5]


def test_criterion_7_path_cycle_bounds():
    """phi(P_n) < 0.81 * 6^(n/4) for n <= 20; phi(C_n) <= 6^(n/4) for
    3 <= n <= 20 with equality exactly at n = 4."""
    report = verify_path_cycle_bounds(n_max=20)
    cycles = {r["n"]: r["phi"] for r in report.details["cycles"]}
    ok = report.passed and cycles[4] == 6
    _report(7, ok, f"paths n<=20 and cycles 3<=n<=20 checked; phi(C4)={cycles[4]}")
    assert ok, report.violations[:5]


def test_criterion_8_order8_sweep_is_gated():
    """The order-8 full sweep is excluded from desk-scale acceptance: it must
    refuse without the explicit flag, and its expected outcome (max 36 on the
    two-block 4-clique classes) is corroborated by direct family counts.  The
    full run is tests/test_long_sweep.py, or `--allow-long`."""
    with pytest.raises(SweepRefusedError) as exc:
        sweep(8)
    refusal_names_cost = "268,435,456" in str(exc.value)

    # every variant pair of 4-clique blocks has exactly 36 maximal sets at n=8
    pair_counts = {
        (i, j): count(disjoint_union(k_star_graph(4, i), k_star_graph(4, j))).phi
        for i in range(3)
        for j in range(3)
    }
    ok = refusal_names_cost and all(v == 36 for v in pair_counts.values())
    _report(8, ok, "order-8 sweep refused without flag; two-block 4-clique "
                   f"counts {sorted(set(pair_counts.values()))} == [36]; full sweep "
                   "runs only with allow_long / --allow-long")
    assert refusal_names_cost
    assert all(v == 36 for v in pair_counts.values())
