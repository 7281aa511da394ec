"""Sweeps, filters, and the verification suites at unit scale."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from dissoc import (
    Graph,
    SweepFilter,
    SweepRefusedError,
    UnsupportedSizeError,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    count,
    cycle_graph,
    is_bipartite,
    is_triangle_free,
    k_star_graph,
    parse_graph6,
    random_bipartite_graph,
    random_graph,
    sweep,
    verify_asymptotic_bounds,
    verify_family_values,
    verify_path_cycle_bounds,
    verify_recurrences,
)
from dissoc import extremal
from dissoc.extremal import (
    VerificationReport,
    _below_path_bound,
    _within_general_bound,
    _within_triangle_free_bound,
    serialize_mask,
)

from labeled import labeled_graphs as _graphs, relabellings
from strategies import graphs

FILTERS = {
    "all": SweepFilter(),
    "triangle-free": SweepFilter(triangle_free=True),
    "bipartite": SweepFilter(bipartite=True),
    "connected": SweepFilter(connected_only=True),
}


def test_exact_bound_checks_at_their_equality_cases():
    # 2K5 has 100 = 10^(10/5) maximal sets and 2C4 has 36 = 6^(8/4)
    assert _within_general_bound(100, 10) and not _within_general_bound(101, 10)
    assert _within_triangle_free_bound(36, 8) and not _within_triangle_free_bound(37, 8)
    # 0.81 * 6^(4/4) = 4.86 and 0.81 * 6^(8/4) = 29.16
    assert _below_path_bound(4, 4) and not _below_path_bound(5, 4)
    assert _below_path_bound(29, 8) and not _below_path_bound(30, 8)


def test_triangle_free_predicate():
    assert not is_triangle_free(3, complete_graph(3).adj)
    assert is_triangle_free(4, cycle_graph(4).adj)
    assert is_triangle_free(6, complete_bipartite_graph(3, 3).adj)


def test_bipartite_predicate():
    assert is_bipartite(4, cycle_graph(4).adj)
    assert not is_bipartite(5, cycle_graph(5).adj)
    assert is_bipartite(6, complete_bipartite_graph(3, 3).adj)
    assert not is_bipartite(3, complete_graph(3).adj)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_generator_yields_exactly_the_admitted_graphs(name):
    filt = FILTERS[name]
    for order in range(6):
        got = list(_graphs(order, filt))
        masks = [mask for mask, _ in got]
        assert len(set(masks)) == len(masks)
        for mask, adj in got:
            assert adj == Graph.from_edge_mask(order, mask).adj
        expected = [
            mask
            for mask in range(1 << (order * (order - 1) // 2))
            if filt.admits(order, Graph.from_edge_mask(order, mask).adj)
        ]
        assert sorted(masks) == expected


# labeled graphs per class for n = 0, 1, 2, ...; connected is A001187
LABELED_CLASS_COUNTS = {
    "triangle-free": (1, 1, 2, 7, 41, 388, 5789, 133501),
    "bipartite": (1, 1, 2, 7, 41, 376, 5177, 103237),
    "connected": (1, 1, 1, 4, 38, 728, 26704),
}


@pytest.mark.parametrize("name", sorted(LABELED_CLASS_COUNTS))
def test_generator_counts_the_labeled_classes(name):
    got = tuple(
        sum(1 for _ in _graphs(order, FILTERS[name]))
        for order in range(len(LABELED_CLASS_COUNTS[name]))
    )
    assert got == LABELED_CLASS_COUNTS[name]


# isomorphism classes for n = 0, 1, 2, ...: A000088, A001349, A006785 and
# A024607 (whose n = 0 term, the null graph, counts as connected here)
CLASS_COUNTS = {
    "all": (1, 1, 2, 4, 11, 34, 156, 1044),
    "connected": (1, 1, 1, 2, 6, 21, 112, 853),
    "triangle-free": (1, 1, 2, 3, 7, 14, 38, 107, 410),
    "triangle-free+connected": (1, 1, 1, 1, 3, 6, 19, 59, 267),
}


@pytest.mark.parametrize("label", sorted(CLASS_COUNTS))
def test_class_generator_counts_the_isomorphism_classes(label):
    filt = SweepFilter(
        triangle_free="triangle-free" in label, connected_only="connected" in label
    )
    got = tuple(
        sum(1 for _ in extremal._graphs(order, filt))
        for order in range(len(CLASS_COUNTS[label]))
    )
    assert got == CLASS_COUNTS[label]


def _labeled_count(name, order):
    if name == "all":
        return 1 << (order * (order - 1) // 2)
    return LABELED_CLASS_COUNTS[name][order]


@pytest.mark.parametrize(
    "name, order",
    [(name, order) for name in sorted(FILTERS) for order in range(7)],
)
def test_class_representatives_are_the_canonical_forms(name, order):
    filt = FILTERS[name]
    classes = list(extremal._graphs(order, filt))
    for mask, adj, _ in classes:
        assert adj == Graph.from_edge_mask(order, mask).adj
    assert {serialize_mask(order, mask) for mask, _, _ in classes} == {
        canonical_form(Graph(order, adj)) for _, adj in _graphs(order, filt)
    }
    # orbit-stabiliser: each class holds order!/|Aut| labeled graphs
    assert sum(math.factorial(order) // aut for _, _, aut in classes) == _labeled_count(name, order)


@pytest.mark.parametrize("name", ["bipartite", "triangle-free"])
def test_order7_class_orbits_partition_the_labeled_graphs(name):
    """At order 7 the labeled walk is checked against the relabellings of each
    representative rather than canonicalised graph by graph."""
    filt = FILTERS[name]
    covered = set()
    total = 0
    for mask, adj, aut in extremal._graphs(7, filt):
        assert canonical_form(Graph(7, adj)) == serialize_mask(7, mask)
        members = set(relabellings(Graph(7, adj)))
        assert len(members) == math.factorial(7) // aut
        covered |= members
        total += len(members)
    walk = {mask for mask, _ in _graphs(7, filt)}
    assert covered == walk
    assert total == len(walk) == _labeled_count(name, 7)


def test_sweep_order4_triangle_free():
    rec = sweep(4, SweepFilter(triangle_free=True))
    assert rec.max_value == 6
    assert rec.extremal_canonical == (canonical_form(cycle_graph(4)),)
    assert rec.graphs_scanned == 41  # labeled triangle-free graphs on 4 vertices


def test_sweep_order5_unfiltered_finds_three_classes():
    rec = sweep(5, SweepFilter())
    assert rec.max_value == 10
    assert rec.graphs_scanned == 1024
    expected = sorted(canonical_form(k_star_graph(5, i)) for i in range(3))
    assert sorted(rec.extremal_canonical) == expected


def test_sweep_refuses_order8_without_flag():
    with pytest.raises(SweepRefusedError, match="268,435,456"):
        sweep(8)


def test_sweep_rejects_order9_even_with_flag():
    with pytest.raises(UnsupportedSizeError):
        sweep(9, allow_long=True)


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        sweep(4, quantity="psi")


def test_sweep_rejects_negative_order():
    with pytest.raises(ValueError, match="at least 0"):
        sweep(-1)
    with pytest.raises(ValueError, match="at least 0"):
        verify_asymptotic_bounds(order_max=-2)


def test_sweep_report_script_prints_one_row_per_order():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_report.py"),
         "--orders", "5", "--filter", "triangle-free", "--workers", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    n, scanned, best, seconds, classes = proc.stdout.splitlines()[-1].split()
    assert (n, scanned, best) == ("5", "388", "8")
    float(seconds)
    assert classes == canonical_form(complete_bipartite_graph(2, 3)) == "DFw"


def test_sweep_order6_unfiltered_maximum_is_15():
    rec = sweep(6, SweepFilter())
    assert rec.max_value == 15
    # attained by the 6-clique minus any partial matching: four classes
    expected = sorted(canonical_form(k_star_graph(6, i)) for i in range(4))
    assert sorted(rec.extremal_canonical) == expected


def test_filter_class_containment_at_order5():
    all_max = sweep(5).max_value
    tf_max = sweep(5, SweepFilter(triangle_free=True)).max_value
    bip_max = sweep(5, SweepFilter(bipartite=True)).max_value
    conn_max = sweep(5, SweepFilter(connected_only=True)).max_value
    assert bip_max <= tf_max <= all_max
    assert conn_max <= all_max


def test_connected_filter_admits_the_right_count():
    rec = sweep(4, SweepFilter(connected_only=True))
    assert rec.graphs_scanned == 38  # connected labeled graphs on 4 vertices


def test_phi_max_records_never_exceed_phi_records():
    for filt in (SweepFilter(), SweepFilter(triangle_free=True)):
        phi_rec = sweep(5, filt, "phi")
        phimax_rec = sweep(5, filt, "phi_max")
        assert phimax_rec.max_value <= phi_rec.max_value


def test_sweep_json_shape():
    doc = sweep(4, SweepFilter(triangle_free=True)).to_json_dict()
    assert set(doc) == {
        "order", "filter", "quantity", "max_value", "extremal_graph6",
        "graphs_scanned", "elapsed_ms", "violations",
    }
    assert doc["violations"] == []
    assert doc["filter"] == "triangle-free"


def test_report_expect_records_violations():
    report = VerificationReport(suite="unit")
    report.expect(True, "ok-check", "fine")
    report.expect(False, "bad-check", "broken", graph6="C~")
    assert report.checks == 2
    assert not report.passed
    assert report.violations[0].check == "bad-check"
    assert report.violations[0].graph6 == "C~"


def test_family_values_small():
    report = verify_family_values(max_t=2)
    assert report.passed
    rows = {(r["family"], r["t"]): r for r in report.details["table"]}
    assert rows[("2C4", 2)]["phi"] == 36
    assert rows[("K2,3 + 1C4", 2)]["phi"] == 48
    assert rows[("P3 + 1C4", 1)]["phi"] == 18


@pytest.mark.parametrize("max_t, rows", [(2, 94), (3, 228)])
def test_family_table_lists_each_variant_multiset_once(max_t, rows):
    table = verify_family_values(max_t=max_t).details["table"]
    assert len(table) == rows
    assert len({(r["family"], r["t"]) for r in table}) == rows


def test_path_cycle_bounds_small():
    report = verify_path_cycle_bounds(n_max=12)
    assert report.passed
    cycles = {row["n"]: row["phi"] for row in report.details["cycles"]}
    assert cycles[4] == 6  # the unique equality case
    paths = {row["n"]: row["phi"] for row in report.details["paths"]}
    assert paths[3] == 3


def test_path_cycle_bounds_stop_at_the_enumeration_cap():
    with pytest.raises(UnsupportedSizeError):
        verify_path_cycle_bounds(n_max=33)


def test_recurrences_small():
    report = verify_recurrences(pivot_trials=20, seed=11)
    assert report.passed


def test_bounds_small():
    report = verify_asymptotic_bounds(order_max=4)
    assert report.passed
    records = report.details["records"]
    rec = next(r for r in records if r["order"] == 4 and r["filter"] == "triangle-free"
               and r["quantity"] == "phi")
    assert rec["max_value"] == 6
    assert rec["extremal_graph6"] == [canonical_form(cycle_graph(4))]


def test_bounds_refuses_order8_without_flag():
    with pytest.raises(SweepRefusedError):
        verify_asymptotic_bounds(order_max=8)


def _small_bounds(order_max=5):
    return verify_asymptotic_bounds(order_max=order_max)


def test_bounds_records_match_sweep():
    records = _small_bounds().details["records"]
    assert len(records) == 6 * 4
    for rec in records:
        filt = FILTERS[rec["filter"]]
        swept = sweep(rec["order"], filt, rec["quantity"]).to_json_dict()
        for key in ("max_value", "extremal_graph6", "graphs_scanned"):
            assert rec[key] == swept[key], (rec, key)


@pytest.mark.parametrize(
    "patched, check, label",
    [
        ("_within_general_bound", "general-bound", "all"),
        ("_within_triangle_free_bound", "triangle-free-bound", "triangle-free"),
    ],
)
def test_bounds_report_a_broken_bound_at_a_maximum(monkeypatch, patched, check, label):
    monkeypatch.setattr(extremal, patched, lambda phi, order: False)
    report = _small_bounds(order_max=4)
    maxima = {
        r["order"]: r["max_value"]
        for r in report.details["records"]
        if r["filter"] == label and r["quantity"] == "phi"
    }
    found = [v for v in report.violations if v.check == check]
    assert len(found) == len(maxima) == 5
    for v in found:
        g = parse_graph6(v.graph6)
        assert count(g).phi == maxima[g.order]
        assert label == "all" or is_triangle_free(g.order, g.adj)


def test_bounds_report_every_graph_with_phi_max_above_phi(monkeypatch):
    clean = _small_bounds(order_max=4)
    real = extremal._phi_pair

    def inverted_on_single_edges(order, adj):
        phi, phi_max = real(order, adj)
        if order == 3 and sum(row.bit_count() for row in adj) == 2:
            return phi, phi + 1
        return phi, phi_max

    monkeypatch.setattr(extremal, "_phi_pair", inverted_on_single_edges)
    report = _small_bounds(order_max=4)
    found = [v for v in report.violations if v.check == "phi-max-le-phi"]
    # the scans visit isomorphism classes: the three one-edge graphs of order
    # 3 are one violation, named by the class representative
    assert [v.graph6 for v in found] == [canonical_form(Graph.from_edges(3, [(0, 1)]))]
    assert {v.check for v in report.violations} == {"phi-max-le-phi"}
    assert clean.passed
    # the passing check at order 3 becomes the one failing check
    assert report.checks == clean.checks


def test_sweep_makes_no_canonical_form_calls(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(extremal, "canonical_form", counted)
    for filt in FILTERS.values():
        for order in range(7):
            sweep(order, filt)
    assert calls == []


def test_random_graph_is_seed_deterministic():
    a = random_graph(random.Random(5), 10, 0.5)
    b = random_graph(random.Random(5), 10, 0.5)
    assert a == b


def test_random_bipartite_graph_is_bipartite():
    rng = random.Random(3)
    for _ in range(20):
        g = random_bipartite_graph(rng, 9, 0.6)
        assert is_bipartite(g.order, g.adj)


@settings(deadline=None, max_examples=30)
@given(graphs(min_order=1, max_order=5))
def test_sweep_filter_admits_matches_predicates(g):
    filt = SweepFilter(triangle_free=True, bipartite=True)
    expected = is_triangle_free(g.order, g.adj) and is_bipartite(g.order, g.adj)
    assert filt.admits(g.order, g.adj) == expected


@pytest.mark.parametrize("args, message", [
    (["--orders", "3-"], "argument --orders: expected a range"),
    (["--orders", "2,x"], "argument --orders: expected a range"),
    (["--orders=-1"], "argument --orders: expected a range"),
    (["--orders", "9"], "error: exhaustive sweeps are capped at order 8, got 9"),
    (["--orders", "8"], "error: a full sweep at order 8 covers 268,435,456 labeled graphs"),
])
def test_sweep_report_script_rejects_bad_orders_with_one_error_line(args, message):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_report.py"), *args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr.splitlines()[-1]
