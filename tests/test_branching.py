"""Branching enumerator: oracle equivalence, counting, pivot partitions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissoc import (
    CountResult,
    DissociationFamily,
    Graph,
    UnsupportedSizeError,
    complete_bipartite_graph,
    complete_graph,
    count,
    cycle_graph,
    disjoint_union,
    dissociation_number,
    enumerate_maximal,
    enumerate_maximal_bruteforce,
    is_dissociation,
    is_maximal,
    maximal_masks,
    maximum_dissociation_set,
    path_graph,
)
from dissoc.branching import _component_families, _pivot_partition, candidate_masks
from dissoc.cli import parse_family_string

from labeled import delete_vertices_mapped
from strategies import graphs


def prism_graph() -> Graph:
    # two triangles joined by a perfect matching; cubic, order 6
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def test_k5_matches_the_oracle_family():
    g = complete_graph(5)
    assert enumerate_maximal(g) == enumerate_maximal_bruteforce(g)
    assert len(enumerate_maximal(g)) == 10


def test_two_cycles_give_36_sets():
    g = disjoint_union(cycle_graph(4), cycle_graph(4))
    assert len(enumerate_maximal(g)) == 36


def test_prism_gives_9_sets():
    assert len(enumerate_maximal(prism_graph())) == 9


def test_equivalence_on_all_graphs_up_to_order_4():
    for n in range(5):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            g = Graph.from_edge_mask(n, mask)
            assert enumerate_maximal(g) == enumerate_maximal_bruteforce(g)


def test_equivalence_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(5, 10)
        g = Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        oracle = enumerate_maximal_bruteforce(g)
        assert enumerate_maximal(g) == oracle
        psi = max(map(len, oracle))
        assert sorted(maximum_dissociation_set(g)) == list(min(s for s in oracle if len(s) == psi))


def test_equivalence_on_relabelled_disjoint_unions():
    # components with two or more maximal sets each, on interleaved labels, so
    # the enumerator merges runs of a product; an isolated vertex or a lone
    # edge sometimes adds a one-set component
    rng = random.Random(28)
    for _ in range(30):
        blocks, want = [], rng.randint(2, 3)
        while len(blocks) < want:
            n = rng.randint(3, 5)
            b = Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            if count(b).phi >= 2:
                blocks.append(b)
        blocks += rng.choice([[], [complete_graph(1)], [complete_graph(2)]])
        u = disjoint_union(*blocks)
        perm = list(range(u.order))
        rng.shuffle(perm)
        g = Graph.from_edges(u.order, [(perm[i], perm[j]) for i, j in u.edges()])
        assert sum(len(part) >= 2 for part in _component_families(g)) >= 2
        assert enumerate_maximal(g) == enumerate_maximal_bruteforce(g), g


@pytest.mark.parametrize(
    "spec, phi",
    [
        ("path:26", 5185),
        ("cycle:24", 3281),
        ("union:(complete:5;complete:5;complete:5;complete:5;complete:5)", 100000),
        ("union:(kmn:3,3;cycle:4;cycle:4;cycle:4;cycle:4)", 14256),
        ("union:(kstar:5,2;kstar:5,1;complete:6;kstar:4,1;kstar:4,2)", 54000),
    ],
)
def test_large_families_equal_the_sort_of_their_product(spec, phi):
    g = parse_family_string(spec)
    product = [0]
    for part in _component_families(g):
        product = [a | b for a in product for b in part]
    family = enumerate_maximal(g)
    assert len(family) == phi
    assert family == DissociationFamily.from_masks(g.order, product)
    # the family runs by size, then lexicographically
    psi = family.masks[-1].bit_count()
    first = next(m for m in family.masks if m.bit_count() == psi)
    assert sum(1 << v for v in maximum_dissociation_set(g)) == first


@pytest.mark.parametrize(
    "graph, phi, psi, phi_max",
    [
        (complete_bipartite_graph(3, 3), 11, 3, 2),
        (cycle_graph(4), 6, 2, 6),
        (path_graph(3), 3, 2, 3),
        (complete_graph(5), 10, 2, 10),
    ],
)
def test_count_fixtures(graph, phi, psi, phi_max):
    result = count(graph)
    assert (result.phi, result.psi, result.phi_max) == (phi, psi, phi_max)
    assert result == CountResult(phi=phi, phi_max=phi_max, psi=psi)
    assert hash(result) == hash(CountResult(phi, phi_max, psi))
    assert result != CountResult(phi, phi_max, psi + 1)
    assert result._asdict() == {"phi": phi, "phi_max": phi_max, "psi": psi}
    assert repr(result) == f"CountResult(phi={phi}, phi_max={phi_max}, psi={psi})"
    with pytest.raises(AttributeError):
        result.phi = phi + 1


def _partition(g, v):
    return _pivot_partition(maximal_masks(g.order, g.adj), g.adj, v)


def test_classify_cycle_pivot():
    assert _partition(cycle_graph(4), 0) == (3, 1, 2)


def test_classify_complete_graph_pivot():
    assert _partition(complete_graph(5), 0) == (6, 0, 4)


def test_classify_single_vertex():
    assert _partition(complete_graph(1), 0) == (0, 1, 0)


def test_partition_leaves_out_a_set_giving_the_pivot_two_neighbours():
    # P3 (0-1-2): its family {0,1}, {0,2}, {1,2} and the non-dissociation set {0,1,2}
    parts = _pivot_partition([0b011, 0b101, 0b110, 0b111], path_graph(3).adj, 1)
    assert parts == (1, 0, 2)
    assert sum(parts) == 3


def test_maximum_set_examples():
    assert maximum_dissociation_set(path_graph(4)) == {0, 1, 3}
    assert maximum_dissociation_set(complete_graph(5)) == {0, 1}
    assert maximum_dissociation_set(disjoint_union(cycle_graph(4), cycle_graph(4))) == {0, 1, 4, 5}


def test_enumerate_rejects_orders_beyond_cap():
    with pytest.raises(UnsupportedSizeError):
        enumerate_maximal(Graph(33, (0,) * 33))
    with pytest.raises(UnsupportedSizeError):
        count(Graph(33, (0,) * 33))
    with pytest.raises(UnsupportedSizeError):
        maximum_dissociation_set(Graph(33, (0,) * 33))


@settings(deadline=None)
@given(graphs(max_order=7))
def test_family_members_are_maximal_dissociation_sets(g):
    for s in enumerate_maximal(g):
        assert is_dissociation(g, s)
        assert is_maximal(g, s)


@settings(deadline=None)
@given(graphs(min_order=1, max_order=7))
def test_count_result_invariants(g):
    result = count(g)
    assert result.phi >= result.phi_max >= 1
    assert result.phi ** 5 <= 10 ** g.order  # the general growth bound, exactly


@settings(deadline=None)
@given(graphs(min_order=1, max_order=6))
def test_pivot_partition_sums_to_phi(g):
    phi = count(g).phi
    for v in range(g.order):
        assert sum(_partition(g, v)) == phi


@settings(deadline=None)
@given(graphs(min_order=2, max_order=6))
def test_pivot_parts_bounded_by_deleted_subgraph_counts(g):
    def phi_without(drop):
        return count(delete_vertices_mapped(g, [w for w in range(g.order) if drop >> w & 1])[0]).phi

    closed = [g.adj[v] | 1 << v for v in range(g.order)]
    for v in range(g.order):
        excluded, isolated, paired = _partition(g, v)
        assert excluded <= phi_without(1 << v)
        assert isolated <= phi_without(closed[v])
        bound = sum(
            phi_without(closed[v] | closed[u]) for u in range(g.order) if g.adj[v] >> u & 1
        )
        assert paired <= bound


@settings(deadline=None)
@given(graphs(max_order=7))
def test_maximum_set_is_a_maximum_dissociation_set(g):
    best = maximum_dissociation_set(g)
    assert is_dissociation(g, best)
    assert len(best) == dissociation_number(g)


@settings(deadline=None)
@given(graphs(min_order=1, max_order=7))
def test_maximum_set_is_lex_least_among_all_maxima(g):
    # every maximum set is maximal, so the oracle family contains them all
    family = enumerate_maximal_bruteforce(g)
    psi = max(len(s) for s in family)
    expected = min(sorted(s) for s in family if len(s) == psi)
    assert sorted(maximum_dissociation_set(g)) == expected


def test_maximum_set_prefers_lexicographically_least():
    # P_4 has two maximum sets; {0,1,3} precedes {0,2,3}
    family = enumerate_maximal(path_graph(4))
    maxima = [sorted(s) for s in family if len(s) == 3]
    assert sorted(maximum_dissociation_set(path_graph(4))) == min(maxima)


def test_strengthened_pivot_recurrence_on_k5():
    # every neighbour of the pivot has its closed neighbourhood inside the
    # pivot's, so the isolated part vanishes and phi(K5) = phi(K4) + 4*phi(null)
    g = complete_graph(5)
    assert _partition(g, 0)[1] == 0
    assert count(g).phi == count(complete_graph(4)).phi + 4 * 1


@settings(deadline=None)
@given(graphs(max_order=9), st.data())
def test_within_a_vertex_mask_is_the_deleted_subgraph(g, data):
    drop = data.draw(st.integers(0, (1 << g.order) - 1), label="dropped mask")
    sub, kept = delete_vertices_mapped(g, [v for v in range(g.order) if drop >> v & 1])
    expected = sorted(sum(1 << kept[v] for v in s) for s in enumerate_maximal(sub))
    assert maximal_masks(g.order, g.adj, within=((1 << g.order) - 1) & ~drop) == expected


def _oracle_masks(g):
    return [sum(1 << v for v in s) for s in enumerate_maximal_bruteforce(g)]


def test_leaves_are_the_oracle_family_on_all_graphs_up_to_order_5():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            leaves = candidate_masks(g.order, g.adj)
            assert len(leaves) == len(set(leaves))
            assert sorted(leaves) == sorted(_oracle_masks(g))


@settings(deadline=None)
@given(graphs(max_order=9))
def test_leaves_are_distinct_and_maximal(g):
    leaves = candidate_masks(g.order, g.adj)
    assert len(leaves) == len(set(leaves))
    assert sorted(leaves) == sorted(_oracle_masks(g))


@settings(deadline=None)
@given(graphs(max_order=6), graphs(max_order=6))
def test_count_multiplies_over_a_disjoint_union(a, b):
    ca, cb = count(a), count(b)
    cu = count(disjoint_union(a, b))
    assert cu.phi == ca.phi * cb.phi
    assert cu.phi_max == ca.phi_max * cb.phi_max
    assert cu.psi == ca.psi + cb.psi


@settings(deadline=None)
@given(graphs(min_order=1, max_order=10), st.randoms(use_true_random=False))
def test_count_is_invariant_under_relabelling(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    h = Graph.from_edges(g.order, [(perm[i], perm[j]) for i, j in g.edges()])
    assert count(h)._asdict() == count(g)._asdict()


def test_count_of_the_largest_path_and_cycle():
    # transfer-matrix values, independent of the branching search
    assert count(path_graph(32))._asdict() == {"phi": 39249, "phi_max": 1, "psi": 22}
    assert count(cycle_graph(32))._asdict() == {"phi": 48830, "phi_max": 32, "psi": 21}
