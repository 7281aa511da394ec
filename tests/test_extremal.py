"""Sweeps, filters, and the verification suites at unit scale."""

import math
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from dissoc import (
    Graph,
    SweepFilter,
    TimeLimitError,
    UnsupportedSizeError,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    count,
    cycle_graph,
    disjoint_union,
    is_triangle_free,
    k_star_graph,
    parse_graph6,
    random_graph,
    serialize_graph6,
    sweep,
    verify_asymptotic_bounds,
    verify_family_values,
    verify_path_cycle_bounds,
    verify_recurrences,
)
from dissoc import extremal
from dissoc.canonical import _least
from dissoc.extremal import (
    EDGE_PROBABILITIES,
    VerificationReport,
    Violation,
    _BOUNDS,
    _PINNED_MAXIMA,
    _below_path_bound,
    _equality_classes,
    _random_triangle_free_graph,
    _within,
)

from labeled import admits, graph_of_mask, labeled_graphs as _graphs, relabellings
from strategies import graphs

FILTERS = {
    "all": SweepFilter(),
    "triangle-free": SweepFilter(triangle_free=True),
    "connected": SweepFilter(connected_only=True),
}


def test_exact_bound_checks_at_their_equality_cases():
    # 2K5 has 100 = 10^(10/5) maximal sets and 2C4 has 36 = 6^(8/4)
    assert _within("all", 100, 10) and not _within("all", 101, 10)
    assert _within("triangle-free", 36, 8) and not _within("triangle-free", 37, 8)
    # 0.81 * 6^(4/4) = 4.86 and 0.81 * 6^(8/4) = 29.16
    assert _below_path_bound(4, 4) and not _below_path_bound(5, 4)
    assert _below_path_bound(29, 8) and not _below_path_bound(30, 8)


@pytest.mark.parametrize("label", sorted(_BOUNDS))
def test_bound_blocks_attain_the_base(label):
    # each block K_root minus a listed matching has phi = phi' = base
    base, root, sizes = _BOUNDS[label]
    for i in sizes:
        block = k_star_graph(root, i)
        result = count(block)
        assert (result.phi, result.phi_max) == (base, base), (label, i)
        assert label == "all" or is_triangle_free(block.order, block.adj)


@pytest.mark.parametrize("label", sorted(_PINNED_MAXIMA))
def test_pinned_maxima_meet_their_bound_with_equality_where_root_divides_n(label):
    base, root, _ = _BOUNDS[label]
    for n, phi in enumerate(_PINNED_MAXIMA[label]):
        assert _within(label, phi, n), (label, n)
        assert (phi ** root == base ** n) == (n % root == 0), (label, n)


def test_triangle_free_predicate():
    assert not is_triangle_free(3, complete_graph(3).adj)
    assert is_triangle_free(4, cycle_graph(4).adj)
    assert is_triangle_free(6, complete_bipartite_graph(3, 3).adj)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_generator_yields_exactly_the_admitted_graphs(name):
    filt = FILTERS[name]
    assert filt.label() == name
    for order in range(6):
        got = list(_graphs(order, filt))
        masks = [mask for mask, _ in got]
        assert len(set(masks)) == len(masks)
        for mask, adj in got:
            assert adj == graph_of_mask(order, mask).adj
        expected = [
            mask
            for mask in range(1 << (order * (order - 1) // 2))
            if admits(filt, order, graph_of_mask(order, mask).adj)
        ]
        assert sorted(masks) == expected


# labeled graphs per class for n = 0, 1, 2, ...; connected is A001187
LABELED_CLASS_COUNTS = {
    "triangle-free": (1, 1, 2, 7, 41, 388, 5789, 133501),
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
    "connected": (1, 1, 1, 2, 6, 21, 112, 853, 11117),
    "triangle-free": (1, 1, 2, 3, 7, 14, 38, 107, 410, 1897),
    "triangle-free+connected": (1, 1, 1, 1, 3, 6, 19, 59, 267, 1380),
}


@pytest.mark.parametrize("label", sorted(CLASS_COUNTS))
def test_class_generator_counts_the_isomorphism_classes(label):
    filt = SweepFilter(
        triangle_free="triangle-free" in label, connected_only="connected" in label
    )
    positional = SweepFilter("triangle-free" in label, "connected" in label)
    assert positional == filt and hash(positional) == hash(filt)
    assert filt.label() == label
    got = tuple(
        sum(1 for _ in extremal._graphs(order, filt))
        for order in range(len(CLASS_COUNTS[label]))
    )
    assert got == CLASS_COUNTS[label]


@pytest.mark.parametrize("name", ["all", "connected"])
def test_class_generator_rejects_most_children_before_searching(name, monkeypatch):
    """Each class of order 1..7 is accepted by one least-labelling search, and
    the relabelling tests leave no more rejecting searches than that (the
    searches alone would reject 10,039 children)."""
    calls = {"accepted": 0, "rejected": 0}

    def counted(*args, **kwargs):
        least = _least(*args, **kwargs)
        calls["rejected" if least is None else "accepted"] += 1
        return least

    monkeypatch.setattr(extremal, "_least", counted)
    assert sum(1 for _ in extremal._graphs(7, FILTERS[name])) == CLASS_COUNTS[name][7]
    assert calls["accepted"] == sum(CLASS_COUNTS["all"][1:8]) == 1252
    assert calls["rejected"] <= 1252


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
    assert {serialize_graph6(Graph(order, adj)) for adj, _ in classes} == {
        canonical_form(Graph(order, adj)) for _, adj in _graphs(order, filt)
    }
    # orbit-stabiliser: each class holds order!/|Aut| labeled graphs
    assert sum(math.factorial(order) // aut for _, aut in classes) == _labeled_count(name, order)


@pytest.mark.parametrize("name", ["triangle-free"])
def test_order7_class_orbits_partition_the_labeled_graphs(name):
    """At order 7 the labeled walk is checked against the relabellings of each
    representative rather than canonicalised graph by graph."""
    filt = FILTERS[name]
    covered = set()
    total = 0
    for adj, aut in extremal._graphs(7, filt):
        assert canonical_form(Graph(7, adj)) == serialize_graph6(Graph(7, adj))
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
    again = sweep(5)  # a record holds results only, so two scans are equal
    assert again == rec and hash(again) == hash(rec)
    expected = sorted(canonical_form(k_star_graph(5, i)) for i in range(3))
    assert sorted(rec.extremal_canonical) == expected


def test_sweep_rejects_orders_beyond_the_enumeration_cap():
    with pytest.raises(UnsupportedSizeError, match="enumeration cap of 32"):
        sweep(33)


def test_order9_maximum_60_is_attained_on_k5_k4_pairs():
    # the order-9 sweep (minutes, outside this suite) finds max phi 60 on
    # these nine classes, below 10^(9/5) ~ 63.1
    for i in range(3):
        for j in range(3):
            result = count(disjoint_union(k_star_graph(5, i), k_star_graph(4, j)))
            assert result.phi == result.phi_max == 60, (i, j)
    assert _within("all", 60, 9)


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        sweep(4, quantity="psi")


def test_sweep_rejects_negative_order():
    with pytest.raises(ValueError, match="at least 0"):
        sweep(-1)
    with pytest.raises(ValueError, match="at least 0"):
        verify_asymptotic_bounds(order_max=-2)


@pytest.mark.parametrize(
    "filt, scanned", [("triangle-free", "388"), ("triangle-free+connected", "207")]
)
def test_sweep_report_script_prints_one_row_per_order(filt, scanned):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_report.py"),
         "--orders", "5", "--filter", filt, "--workers", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    n, labeled, best, seconds, classes = proc.stdout.splitlines()[-1].split()
    assert (n, labeled, best) == ("5", scanned, "8")
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
    conn_max = sweep(5, SweepFilter(connected_only=True)).max_value
    assert tf_max <= all_max
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
    assert list(doc) == [
        "order", "filter", "quantity", "max_value", "extremal_graph6", "graphs_scanned",
    ]
    assert doc["filter"] == "triangle-free"
    # a sweep's record is the verify bounds record of the same scan
    records = verify_asymptotic_bounds(order_max=4).details["records"]
    assert doc in records


def test_report_expect_records_violations():
    report = VerificationReport(suite="unit")
    report.expect(True, "ok-check", "fine")
    report.expect(False, "bad-check", "broken", graph6="C~")
    assert report.checks == 2
    assert not report.passed
    assert report.violations[0].check == "bad-check"
    assert report.violations[0].graph6 == "C~"
    assert report.violations[0].to_json_dict() == {
        "check": "bad-check", "detail": "broken", "graph6": "C~"}
    # a violation without a graph has no graph6 key
    assert Violation("bad-check", "broken").to_json_dict() == {
        "check": "bad-check", "detail": "broken"}
    # each report owns its violations and details
    report.details["key"] = 1
    fresh, other = VerificationReport("unit"), VerificationReport("unit")
    assert fresh.violations == [] and fresh.details == {} and fresh.passed
    assert fresh.violations is not other.violations and fresh.details is not other.details


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


@pytest.mark.parametrize("suite, size", [(verify_family_values, "max_t"),
                                         (verify_path_cycle_bounds, "n_max")])
def test_suites_refuse_a_size_that_checks_nothing(suite, size):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{size} must be at least 1, got {value}"):
            suite(value)


def test_path_cycle_bounds_stop_at_the_enumeration_cap():
    with pytest.raises(UnsupportedSizeError):
        verify_path_cycle_bounds(n_max=33)


def test_recurrences_small():
    report = verify_recurrences(pivot_trials=20, seed=11)
    assert report.passed


def test_pivot_partition_total_reports_a_set_giving_the_pivot_two_neighbours(monkeypatch):
    # the family of P3 (0-1-2) gains {0, 1, 2}, which gives v = 1 two
    # neighbours; the deleted-subgraph searches stay as they are
    real = extremal.maximal_masks

    def with_the_whole_path(order, adj, *within):
        masks = real(order, adj, *within)
        return masks if within else [*masks, 0b111]

    monkeypatch.setattr(extremal, "maximal_masks", with_the_whole_path)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    report = VerificationReport("recurrences")
    extremal._check_pivot_recurrence(p3, report, serialize_graph6(p3))
    totals = [v.detail for v in report.violations if v.check == "pivot-partition-total"]
    assert totals == ["Bg v=1: partition parts sum to 3, phi=4"]


def test_bounds_small():
    report = verify_asymptotic_bounds(order_max=4)
    assert report.passed
    records = report.details["records"]
    rec = next(r for r in records if r["order"] == 4 and r["filter"] == "triangle-free"
               and r["quantity"] == "phi")
    assert rec["max_value"] == 6
    assert rec["extremal_graph6"] == [canonical_form(cycle_graph(4))]


# the expected equality classes of orders 4..8, as canonical_form labelled them
EXPECTED_CLASSES = {
    4: (set(), {"C]"}),
    5: ({"D]{", "D^{", "D~{"}, set()),
    6: (set(), set()),
    7: (set(), set()),
    8: (set(), {"G?KuE?"}),
}


def test_expected_equality_classes_are_pinned_through_order_8():
    for order, (general, triangle_free) in EXPECTED_CLASSES.items():
        assert _equality_classes("all", order) == general
        assert _equality_classes("triangle-free", order) == triangle_free


def test_expected_equality_classes_past_order_8():
    # the six unions of two K5 minus a matching, and 3C4, are labelled past order 8
    general = _equality_classes("all", 10)
    triangle_free = _equality_classes("triangle-free", 12)
    assert (len(general), len(triangle_free)) == (6, 1)
    for text in general | triangle_free:
        g = parse_graph6(text)
        assert _least(g.order, g.adj, stop_below=True) is not None  # its own least labelling
    assert {parse_graph6(text).order for text in general} == {10}


def test_bounds_check_the_pinned_maxima(monkeypatch):
    table = extremal._PINNED_MAXIMA["all"]
    monkeypatch.setitem(extremal._PINNED_MAXIMA, "all", table[:5] + (11,) + table[6:])
    report = _small_bounds()
    assert [(v.check, v.detail) for v in report.violations] == [
        ("pinned-maximum", "order 5: all maximum phi=10, expected 11")]
    assert report.violations[0].graph6 in _equality_classes("all", 5)


def test_bounds_over_budget_raises_time_limit_error(monkeypatch):
    monkeypatch.setattr(extremal, "SWEEP_TIME_LIMIT", 0.5)
    budget = r"order-[789] sweep of all graphs exceeded its 0\.5s budget"
    with pytest.raises(TimeLimitError, match=budget):
        verify_asymptotic_bounds(order_max=9)


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
    "check, label",
    [("general-bound", "all"), ("triangle-free-bound", "triangle-free")],
    ids=["all", "triangle-free"],
)
def test_bounds_report_a_broken_bound_at_a_maximum(monkeypatch, check, label):
    real = extremal._within
    monkeypatch.setattr(extremal, "_within",
                        lambda lab, phi, order: lab != label and real(lab, phi, order))
    report = _small_bounds(order_max=4)
    maxima = {
        r["order"]: r
        for r in report.details["records"]
        if r["filter"] == label and r["quantity"] == "phi"
    }
    found = [v for v in report.violations if v.check == check]
    assert len(found) == len(maxima) == 5
    for v in found:
        g = parse_graph6(v.graph6)
        assert count(g).phi == maxima[g.order]["max_value"]
        # the witness is one of the record's attaining classes
        assert v.graph6 in maxima[g.order]["extremal_graph6"]
        assert label == "all" or is_triangle_free(g.order, g.adj)


@pytest.mark.parametrize(
    "label, weakened, check, unmet",
    [
        ("all", (9, 5, (0, 1, 2)), "general", {"bound": [4, 5], "equality-classes": [5, 5]}),
        ("triangle-free", (5, 4, (2,)), "triangle-free",
         {"bound": [4, 5], "equality-classes": [4, 4]}),
    ],
    ids=["all", "triangle-free"],
)
def test_a_weakened_bound_in_the_table_is_reported(monkeypatch, label, weakened, check, unmet):
    # lowering one entry's base is enough to turn its bound and equality
    # checks into violations: no other code states the bound
    monkeypatch.setitem(extremal._BOUNDS, label, weakened)
    report = _small_bounds()
    found = {
        kind: [int(v.detail.split()[1].rstrip(":")) for v in report.violations
               if v.check == f"{check}-{kind}"]
        for kind in unmet
    }
    assert found == unmet
    assert {v.check for v in report.violations} == {f"{check}-{kind}" for kind in unmet}
    paths_cycles = verify_path_cycle_bounds(n_max=12)
    assert paths_cycles.passed == (label == "all")
    if label == "triangle-free":
        assert "cycle-equality" in {v.check for v in paths_cycles.violations}


def test_spot_checks_report_the_graphs_past_a_weakened_bound(monkeypatch):
    # at base 3 both spot models draw triangle-free graphs past 3^(n/4)
    monkeypatch.setitem(extremal._BOUNDS, "triangle-free", (3, 4, (2,)))
    report = verify_asymptotic_bounds(3)
    assert report.details["spot_checks"] == 410
    found = [v for v in report.violations if v.check == "spot-bound"]
    assert len(found) == 93
    assert {v.detail.split(" order ")[0] for v in found} == {
        "random graph", "random triangle-free graph"}
    for v in found:
        g = parse_graph6(v.graph6)
        assert is_triangle_free(g.order, g.adj)
        assert count(g).phi ** 4 > 3 ** g.order


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
    # the generator's classes are canonical already: only the bound suite's
    # expected equality classes are labelled
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


def test_random_triangle_free_graph_is_triangle_free():
    rng = random.Random(3)
    for trial in range(60):
        g = _random_triangle_free_graph(rng, 12, EDGE_PROBABILITIES[trial % 3])
        assert is_triangle_free(g.order, g.adj), serialize_graph6(g)


@settings(deadline=None, max_examples=30)
@given(graphs(min_order=1, max_order=5))
def test_sweep_filter_admits_matches_predicates(g):
    filt = SweepFilter(triangle_free=True, connected_only=True)
    expected = is_triangle_free(g.order, g.adj) and g.is_connected()
    assert admits(filt, g.order, g.adj) == expected


@pytest.mark.parametrize("args, message", [
    (["--orders", "3-"], "argument --orders: expected a range"),
    (["--orders", "2,x"], "argument --orders: expected a range"),
    (["--orders=-1"], "argument --orders: expected a range"),
    (["--orders", "33"], "error: order 33 exceeds the enumeration cap of 32"),
    (["--filter", "bipartite"], "argument --filter: invalid choice: 'bipartite'"),
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


def test_sweep_report_help_keeps_the_usage_layout():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_report.py"), "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "COLUMNS": "80"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "        [--filter all|triangle-free|connected|triangle-free+connected]" in (
        proc.stdout.splitlines())
    assert "--workers" not in proc.stdout


def test_sweep_report_script_over_budget_prints_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(extremal, "SWEEP_TIME_LIMIT", 0.5)
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_report.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--orders", "9"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1  # the table header, and no row
    assert err.splitlines() == ["error: order-9 sweep of all graphs exceeded its 0.5s budget"]
