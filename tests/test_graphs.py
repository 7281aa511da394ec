"""Graph construction, named families, and vertex deletion."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dissoc import (
    FamilySpecError,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    path_graph,
)
from dissoc.cli import parse_family_string

from labeled import delete_vertices_mapped, edge_mask, graph_of_mask
from strategies import graphs


def test_complete_graph_degrees_and_edges():
    g = complete_graph(5)
    assert len(list(g.edges())) == 10
    assert all(g.adj[v].bit_count() == 4 for v in range(5))


def test_k_star_5_2_deletes_first_matching():
    g = k_star_graph(5, 2)
    assert sorted(g.adj[v].bit_count() for v in range(5)) == [3, 3, 3, 3, 4]
    missing = {(0, 1), (2, 3)}
    present = set(g.edges())
    assert missing.isdisjoint(present)
    assert len(present) == 8


def test_disjoint_union_of_two_cycles():
    g = disjoint_union(cycle_graph(4), cycle_graph(4))
    assert g.order == 8
    assert len(list(g.edges())) == 8
    assert len(g.components()) == 2


@pytest.mark.parametrize(
    "spec, order, edges",
    [
        (("path:4", path_graph(4)), 4, 3),
        (("cycle:5", cycle_graph(5)), 5, 5),
        (("complete:4", complete_graph(4)), 4, 6),
        (("kmn:2,3", complete_bipartite_graph(2, 3)), 5, 6),
        (("kstar:5,1", k_star_graph(5, 1)), 5, 9),
        (("union:(cycle:4;path:3)", disjoint_union(cycle_graph(4), path_graph(3))), 7, 6),
    ],
)
def test_build_family_specs(spec, order, edges):
    text, expected = spec
    g = parse_family_string(text)
    assert g == expected
    assert g.order == order
    assert len(list(g.edges())) == edges


@pytest.mark.parametrize(
    "spec",
    [
        ("cycle:2", cycle_graph, (2,)),
        ("path:0", path_graph, (0,)),
        ("complete:0", complete_graph, (0,)),
        ("kstar:5,3", k_star_graph, (5, 3)),
        ("kstar:4,-1", k_star_graph, (4, -1)),
        ("kmn:0,3", complete_bipartite_graph, (0, 3)),
    ],
)
def test_build_rejects_bad_parameters(spec):
    text, builder, args = spec
    with pytest.raises(FamilySpecError):
        builder(*args)
    with pytest.raises(FamilySpecError):
        parse_family_string(text)


def test_delete_middle_of_path():
    g, kept = delete_vertices_mapped(path_graph(4), {1})
    assert kept == (0, 2, 3)
    assert g.order == 3
    assert list(g.edges()) == [(1, 2)]  # image of the original edge 2-3
    assert g.adj[0].bit_count() == 0


def test_delete_closed_neighborhood_of_cycle_vertex():
    g, _ = delete_vertices_mapped(cycle_graph(4), {3, 0, 1})
    assert g.order == 1
    assert len(list(g.edges())) == 0


def test_delete_nothing_is_identity():
    g = complete_bipartite_graph(2, 3)
    assert delete_vertices_mapped(g, set()) == (g, (0, 1, 2, 3, 4))


def test_delete_rejects_out_of_range():
    with pytest.raises(IndexError):
        delete_vertices_mapped(path_graph(3), {5})


def test_graph_rejects_asymmetric_adjacency():
    for order, adj in ((2, (0b10, 0b00)), (3, (0b100, 0b000, 0b000))):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(order, adj)
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(order=order, adj=adj)


def test_graph_rejects_self_loop():
    for order, adj in ((1, (0b1,)), (2, (0b01, 0b10))):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(order, adj)
        with pytest.raises(ValueError, match="self-loop"):
            Graph(order=order, adj=adj)


def test_graph_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))


def test_graphs_are_immutable_values():
    g = path_graph(3)
    same = Graph.from_edges(3, [(1, 2), (0, 1)])
    assert g == same and hash(g) == hash(same) and g is not same
    assert g != cycle_graph(3) and g != Graph(3, (0, 0, 0))
    assert g != (3, (2, 5, 2))  # equal only to graphs
    assert len({g, same, Graph(3, (2, 5, 2))}) == 1
    assert repr(g) == "Graph(order=3, adj=(2, 5, 2))"
    assert pickle.loads(pickle.dumps(g)) == g == copy.deepcopy(g)
    with pytest.raises(AttributeError):
        g.order = 4
    with pytest.raises(AttributeError):
        g.adj = (0, 0, 0)
    with pytest.raises(AttributeError):
        del g.order
    with pytest.raises(AttributeError):
        g.label = "P3"
    assert g.order == 3 and g.adj == (2, 5, 2)


@given(graphs())
def test_adjacency_is_symmetric_and_irreflexive(g):
    for i in range(g.order):
        assert not (g.adj[i] >> i) & 1
        for j in range(g.order):
            assert ((g.adj[i] >> j) & 1) == ((g.adj[j] >> i) & 1)


@given(graphs(max_order=6))
def test_edge_mask_roundtrip(g):
    back = graph_of_mask(g.order, edge_mask(g))
    assert back == g and hash(back) == hash(g)


@given(graphs(max_order=5), graphs(max_order=5))
def test_union_adds_orders_and_edges(a, b):
    u = disjoint_union(a, b)
    assert u.order == a.order + b.order
    assert len(list(u.edges())) == len(list(a.edges())) + len(list(b.edges()))


@given(graphs(min_order=1, max_order=6), st.data())
def test_delete_map_preserves_adjacency(g, data):
    drop = data.draw(
        st.sets(st.integers(0, g.order - 1), max_size=g.order), label="dropped"
    )
    sub, kept = delete_vertices_mapped(g, drop)
    assert set(kept) == set(range(g.order)) - set(drop)
    for a in range(sub.order):
        for b in range(sub.order):
            assert ((sub.adj[a] >> b) & 1) == ((g.adj[kept[a]] >> kept[b]) & 1)
