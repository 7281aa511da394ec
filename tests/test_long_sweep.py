"""The order-8 full sweep over all 12,346 isomorphism classes (2^28 labeled graphs)."""

from dissoc import SweepFilter, canonical_form, disjoint_union, k_star_graph, sweep


def test_order8_full_sweep_maximum_is_36_on_two_block_4_cliques():
    rec = sweep(8, SweepFilter(), allow_long=True)
    assert rec.max_value == 36
    expected = {
        canonical_form(disjoint_union(k_star_graph(4, i), k_star_graph(4, j)))
        for i in range(3)
        for j in range(i, 3)
    }
    assert set(rec.extremal_canonical) == expected
    assert rec.graphs_scanned == 1 << 28
