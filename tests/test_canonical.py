"""Canonical forms: equality exactly for isomorphic graphs at any order, the
least-labelling search behind them, and its time budget."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissoc import (
    Graph,
    Graph6Error,
    TimeLimitError,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    parse_graph6,
    serialize_graph6,
)
from dissoc import canonical
from dissoc.canonical import _least, _twins

from labeled import relabellings
from strategies import graphs


def test_c4_equals_k4_minus_perfect_matching():
    k4_minus_matching = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert canonical_form(cycle_graph(4)) == canonical_form(k4_minus_matching)


def test_k23_differs_from_c5():
    assert canonical_form(complete_bipartite_graph(2, 3)) != canonical_form(cycle_graph(5))


def test_k5_minus_any_single_edge_is_one_class():
    reference = canonical_form(k_star_graph(5, 1))
    all_edges = set(combinations(range(5), 2))
    for e in all_edges:
        g = Graph.from_edges(5, all_edges - {e})
        assert canonical_form(g) == reference


def test_labels_past_order_8():
    for n in (9, 20):
        assert canonical_form(complete_graph(n)) == serialize_graph6(complete_graph(n))
    # 2K5 and 3C4, with |Aut| = 2 * 5!^2 and 3! * 8^3
    for g, aut in ((disjoint_union(complete_graph(5), complete_graph(5)), 28800),
                   (disjoint_union(*[cycle_graph(4)] * 3), 3072)):
        rep = parse_graph6(canonical_form(g))
        assert rep.order == g.order
        assert _least(rep.order, rep.adj, stop_below=True) == (_least(g.order, g.adj)[0], aut)


def test_search_past_its_budget_raises_time_limit_error(monkeypatch):
    monkeypatch.setattr(canonical, "CANONICAL_TIME_LIMIT", 0.0)
    t0 = time.monotonic()
    with pytest.raises(TimeLimitError, match=r"order-16 canonical labelling exceeded its 0\.0s budget"):
        canonical_form(cycle_graph(16))
    assert time.monotonic() - t0 < 1.0
    # a search of fewer than 1024 extending nodes ends before any clock check
    assert canonical_form(cycle_graph(4)) == "C]"


def test_order_past_graph6_is_refused_before_any_search(monkeypatch):
    monkeypatch.setattr(canonical, "CANONICAL_TIME_LIMIT", 600.0)
    searched = []
    monkeypatch.setattr(canonical, "_least", lambda *args: searched.append(args))
    t0 = time.monotonic()
    for g in (cycle_graph(63), complete_graph(63)):
        with pytest.raises(Graph6Error, match="order <= 62, got 63"):
            canonical_form(g)
    assert time.monotonic() - t0 < 1.0
    assert searched == []


# the canonical strings of every class of order 4 and 5 (A000088: 11 and 34)
CANONICAL_FORMS = {
    4: "C? C@ CB CF CJ CK CL CN C] C^ C~",
    5: "D?? D?C D?K D?[ D?{ D@K D@O D@S D@[ D@o D@s D@{ DBW DB[ DBg DBk DBw DB{ "
       "DFw DF{ DJ[ DJ_ DJc DJk DJ{ DK{ DLo DLs DL{ DNw DN{ D]{ D^{ D~{",
}


@pytest.mark.parametrize("order", sorted(CANONICAL_FORMS))
def test_canonical_strings_are_pinned(order):
    forms = {
        canonical_form(Graph.from_edge_mask(order, mask))
        for mask in range(1 << (order * (order - 1) // 2))
    }
    assert sorted(forms) == CANONICAL_FORMS[order].split()


def _check_least_counts_automorphisms(g):
    columns, aut = _least(g.order, g.adj)
    # brute force: the vertex permutations that map the edge mask onto itself
    assert aut == sum(mask == g.edge_mask() for mask in relabellings(g))
    # the search under stop_below passes exactly on canonical labellings
    canonical = serialize_graph6(g) == canonical_form(g)
    assert (_least(g.order, g.adj, stop_below=True) is not None) == canonical
    if canonical:
        assert _least(g.order, g.adj, stop_below=True) == (columns, aut)


def test_least_counts_the_automorphisms():
    for order in range(6):
        for mask in range(1 << (order * (order - 1) // 2)):
            _check_least_counts_automorphisms(Graph.from_edge_mask(order, mask))


@settings(deadline=None)
@given(graphs(min_order=6, max_order=7))
def test_least_counts_the_automorphisms_of_larger_graphs(g):
    _check_least_counts_automorphisms(g)


@settings(deadline=None)
@given(graphs(max_order=8))
def test_twins_are_the_swaps_that_are_automorphisms(g):
    edges = {frozenset(e) for e in g.edges()}
    for v, twins in enumerate(_twins(g.adj)):
        for w in range(g.order):
            swap = {v: w, w: v}
            swapped = {frozenset(swap.get(x, x) for x in e) for e in edges}
            assert (twins >> w & 1) == (swapped == edges)


def test_null_graph_canonical_form():
    assert canonical_form(Graph(0, ())) == "?"


@settings(deadline=None)
@given(graphs(max_order=10), st.randoms(use_true_random=False))
def test_permutation_invariance(g, rnd):
    perm = list(range(g.order))
    rnd.shuffle(perm)
    relabeled = Graph.from_edges(g.order, [(perm[i], perm[j]) for i, j in g.edges()])
    assert canonical_form(relabeled) == canonical_form(g)


@settings(deadline=None)
@given(graphs(max_order=6))
def test_canonical_form_is_idempotent(g):
    c = canonical_form(g)
    assert canonical_form(parse_graph6(c)) == c


@settings(deadline=None)
@given(graphs(max_order=6))
def test_representative_keeps_order_and_degrees(g):
    rep = parse_graph6(canonical_form(g))
    assert rep.order == g.order
    assert sorted(rep.degree(v) for v in range(rep.order)) == sorted(
        g.degree(v) for v in range(g.order)
    )
