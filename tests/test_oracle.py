"""Brute-force oracle: dissociation predicate, maximality, subset enumeration."""

import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dissoc import (
    DissociationFamily,
    Graph,
    TimeLimitError,
    UnsupportedSizeError,
    complete_bipartite_graph,
    complete_graph,
    count,
    count_maximum_bruteforce,
    cycle_graph,
    disjoint_union,
    dissociation_number,
    enumerate_maximal,
    enumerate_maximal_bruteforce,
    is_dissociation,
    is_maximal,
    path_graph,
)
from dissoc import oracle as oracle_module
from dissoc.oracle import _members

from labeled import graph_of_mask
from strategies import graphs


def test_is_dissociation_on_cycle():
    c4 = cycle_graph(4)
    assert is_dissociation(c4, {0, 1})          # one induced edge
    assert not is_dissociation(c4, {0, 1, 2})   # middle vertex has degree 2
    assert is_dissociation(c4, set())


def test_is_maximal_examples():
    c4 = cycle_graph(4)
    assert is_maximal(c4, {0, 2})        # the diagonal pair cannot be extended
    assert not is_maximal(c4, {0})       # {0, 1} extends it
    assert not is_maximal(path_graph(4), {0, 3})  # extends to {0, 1, 3}


def test_is_maximal_requires_a_dissociation_set():
    with pytest.raises(ValueError):
        is_maximal(cycle_graph(4), {0, 1, 2})


def test_enumerate_k5_gives_all_pairs():
    family = enumerate_maximal_bruteforce(complete_graph(5))
    assert len(family) == 10
    assert all(len(s) == 2 for s in family)


def test_enumerate_c4_gives_six_named_sets():
    family = enumerate_maximal_bruteforce(cycle_graph(4))
    expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(family) == expected


@pytest.mark.parametrize(
    "graph, phi",
    [
        (complete_bipartite_graph(2, 3), 8),
        (complete_bipartite_graph(3, 3), 11),
    ],
)
def test_enumerate_complete_bipartite_counts(graph, phi):
    assert len(enumerate_maximal_bruteforce(graph)) == phi


def test_dissociation_number_examples():
    assert dissociation_number(cycle_graph(4)) == 2
    assert dissociation_number(path_graph(4)) == 3
    assert dissociation_number(Graph(0, ())) == 0


def test_count_maximum_examples():
    assert count_maximum_bruteforce(cycle_graph(4)) == 6
    assert count_maximum_bruteforce(path_graph(4)) == 2
    assert count_maximum_bruteforce(complete_graph(5)) == 10


def test_null_graph_has_only_the_empty_set():
    family = enumerate_maximal_bruteforce(Graph(0, ()))
    assert len(family) == 1
    assert list(family) == [()]


def test_empty_set_never_reported_for_positive_order():
    for n in range(1, 6):
        family = enumerate_maximal_bruteforce(Graph(n, (0,) * n))
        assert () not in list(family)


def test_family_is_ordered_by_size_then_lexicographically():
    family = enumerate_maximal_bruteforce(path_graph(4))
    assert list(family) == [(1, 2), (0, 1, 3), (0, 2, 3)]


def test_family_yields_sorted_tuples_and_tests_membership_by_set():
    assert list(enumerate_maximal_bruteforce(path_graph(4))) == [(1, 2), (0, 1, 3), (0, 2, 3)]
    family = enumerate_maximal_bruteforce(cycle_graph(4))
    assert [1, 0, 0] in family
    assert (3, 2) in family
    assert [0, 1, 2] not in family
    assert [0] not in family
    assert [-1] not in family  # out-of-range vertices are absent, not errors
    assert [40] not in family
    assert [0, 40] not in family


def test_families_are_immutable_values():
    family = enumerate_maximal_bruteforce(cycle_graph(4))
    same = DissociationFamily.from_masks(4, reversed(family.masks))
    assert family == same and hash(family) == hash(same) and family is not same
    assert family == enumerate_maximal(cycle_graph(4))  # the enumerator's family
    assert family != DissociationFamily(5, family.masks)
    assert family != enumerate_maximal_bruteforce(path_graph(4))
    assert repr(DissociationFamily(2, (3,))) == "DissociationFamily(source_order=2, masks=(3,))"
    assert family.sets == tuple(family) and "sets" in vars(family)  # decoded once
    assert pickle.loads(pickle.dumps(family)) == family
    with pytest.raises(AttributeError):
        family.masks = ()
    with pytest.raises(AttributeError):
        family.source_order = 5


_MASKS = st.one_of(
    st.integers(0, (1 << 32) - 1),
    st.integers(0, 63),  # small sets: many size ties
    st.sampled_from([0, 1 << 31, (1 << 32) - 1, 1 | 1 << 31]),
)


@given(st.lists(_MASKS, max_size=40))
@example([0, 1 << 31, 1 << 31, 1, 2, 3, 5, 6, 9, 10, 12, 1 | 1 << 31, 2 | 1 << 30])
def test_family_order_is_size_then_member_list(masks):
    expected = sorted(map(_members, set(masks)))
    expected.sort(key=len)  # stable, so each size stays lexicographic
    family = DissociationFamily.from_masks(32, masks)
    assert family.sets == tuple(expected)
    assert list(family) == expected
    assert len(family) == len(expected)
    assert family.masks == tuple(sum(1 << v for v in s) for s in expected)
    assert family == DissociationFamily.from_masks(32, reversed(masks))


def test_membership_compares_masks_without_decoding_the_family():
    family = enumerate_maximal_bruteforce(cycle_graph(4))
    assert (1, 0) in family and [3, 3, 2] in family
    assert [0, 1, 2] not in family and [0, 32] not in family and [-1, 0] not in family
    assert "sets" not in vars(family)


@st.composite
def _disjoint_parts(draw):
    """Up to four parts of up to five masks each, on disjoint vertex sets
    whose vertices interleave: each of the 32 vertices joins one part or
    none, and a part's masks are drawn inside its vertices.  Empty parts,
    one-set parts and repeated masks all occur."""
    count = draw(st.integers(0, 4))
    owner = draw(st.lists(st.integers(-1, count - 1), min_size=32, max_size=32))
    parts = []
    for i in range(count):
        within = sum(1 << v for v, o in enumerate(owner) if o == i)
        parts.append([m & within for m in draw(st.lists(_MASKS, max_size=5))])
    return parts


@given(_disjoint_parts())
@example([])
@example([[5], [], [2, 8]])
@example([[1, 1], [2, 8], [4]])
@example([[0b0101, 0b0001], [0b1010, 0b1000], [1 << 31]])
def test_a_family_of_parts_is_the_family_of_their_product(parts):
    product = [0]
    for part in parts:
        product = [a | b for a in product for b in part]
    expected = sorted(map(_members, set(product)))
    expected.sort(key=len)
    family = DissociationFamily.from_masks(32, *parts)
    assert family == DissociationFamily.from_masks(32, product)
    assert list(family) == expected


def test_an_empty_part_gives_the_empty_family_and_no_part_the_empty_set():
    assert DissociationFamily.from_masks(4, [1, 2], []).masks == ()
    assert DissociationFamily.from_masks(4).masks == (0,)
    assert DissociationFamily.from_masks(4, [1, 1], [4]).masks == (5,)


def _members_by_bit_loop(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


@given(st.integers(0, (1 << 32) - 1))
@example(0)
@example(1 << 31)
@example((1 << 32) - 1)
def test_member_tables_decode_as_the_bit_loop(mask):
    assert _members(mask) == _members_by_bit_loop(mask)


def test_oracle_rejects_orders_beyond_cap():
    for oracle in (enumerate_maximal_bruteforce, dissociation_number, count_maximum_bruteforce):
        with pytest.raises(UnsupportedSizeError):
            oracle(Graph(25, (0,) * 25))


def test_oracle_time_guard_raises_instead_of_truncating(monkeypatch):
    monkeypatch.setattr(oracle_module, "ORACLE_TIME_LIMIT", 0.0)
    for oracle in (enumerate_maximal_bruteforce, dissociation_number, count_maximum_bruteforce):
        with pytest.raises(TimeLimitError):
            oracle(complete_graph(12))


def test_oracle_agrees_with_the_enumerator_on_every_small_labeled_graph():
    for order in range(6):
        for mask in range(1 << (order * (order - 1) // 2)):
            g = graph_of_mask(order, mask)
            c = count(g)
            assert (
                len(enumerate_maximal_bruteforce(g)),
                count_maximum_bruteforce(g),
                dissociation_number(g),
            ) == (c.phi, c.phi_max, c.psi), g


@settings(deadline=None)
@given(graphs(max_order=6))
def test_every_reported_set_is_maximal_dissociation(g):
    for s in enumerate_maximal_bruteforce(g):
        assert is_dissociation(g, s)
        assert is_maximal(g, s)


@settings(deadline=None)
@given(graphs(max_order=6))
def test_maximum_count_never_exceeds_maximal_count(g):
    assert count_maximum_bruteforce(g) <= len(enumerate_maximal_bruteforce(g))


def test_multiplicativity_over_disjoint_unions():
    rng = random.Random(7)
    for _ in range(40):
        na, nb = rng.randint(1, 8), rng.randint(1, 8)
        a = graph_of_mask(na, rng.getrandbits(na * (na - 1) // 2))
        b = graph_of_mask(nb, rng.getrandbits(nb * (nb - 1) // 2))
        phi_a = len(enumerate_maximal_bruteforce(a))
        phi_b = len(enumerate_maximal_bruteforce(b))
        assert len(enumerate_maximal_bruteforce(disjoint_union(a, b))) == phi_a * phi_b
