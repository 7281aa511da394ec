"""graph6 codec: round trips and malformed-input handling."""

import random

import pytest
from hypothesis import given

from dissoc import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    parse_graph6,
    serialize_graph6,
)

from strategies import graphs


def test_single_vertex_serializes_to_at_sign():
    assert serialize_graph6(complete_graph(1)) == "@"


def test_question_mark_is_the_null_graph():
    g = parse_graph6("?")
    assert g.order == 0
    assert g.adj == ()


def test_cycle_roundtrip_is_a_cycle():
    g = parse_graph6(serialize_graph6(cycle_graph(4)))
    assert g.order == 4
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_roundtrip_all_graphs_up_to_order_5():
    for n in range(6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            g = Graph.from_edge_mask(n, mask)
            assert parse_graph6(serialize_graph6(g)) == g


def test_roundtrip_1000_random_graphs_up_to_order_10():
    rng = random.Random(20240601)
    for _ in range(1000):
        n = rng.randint(0, 10)
        nbits = n * (n - 1) // 2
        g = Graph.from_edge_mask(n, rng.getrandbits(nbits) if nbits else 0)
        assert parse_graph6(serialize_graph6(g)) == g


def test_string_roundtrip_on_valid_inputs():
    # serialize . parse is the identity on strings the encoder can produce
    for n in range(5):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            text = serialize_graph6(Graph.from_edge_mask(n, mask))
            assert serialize_graph6(parse_graph6(text)) == text


def test_accepts_bytes_input():
    assert parse_graph6(b"@").order == 1


@pytest.mark.parametrize(
    "text",
    [
        "",             # empty
        "C",            # order 4 but no data bytes
        "Cll",          # too many data bytes
        "A@",           # nonzero padding bits for order 2
        "B\x1f",        # byte below 63
        "C~~",          # length mismatch
        "bogus!!",      # '!' outside range
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(Graph6Error):
        parse_graph6(text)


def test_length_errors_say_whether_bytes_are_missing_or_extra():
    # order 12 packs its 66 adjacency bits into 11 data bytes
    with pytest.raises(Graph6Error) as short:
        parse_graph6("K" + "?" * 10)
    assert str(short.value) == "truncated graph6 input: order 12 needs 11 data bytes, got 10"
    with pytest.raises(Graph6Error) as long:
        parse_graph6("K" + "?" * 12)
    assert str(long.value) == "graph6 input too long: order 12 needs 11 data bytes, got 12"


@pytest.mark.parametrize(
    "text", ["~", "~" + "?" * 326, "~??~" + "?" * 326],
    ids=["tilde-alone", "tilde-and-order-63-body", "long-form-order-63"],
)
def test_leading_tilde_is_the_long_form_and_rejected(text):
    # "~" starts graph6's long form, whatever follows; "~" + 326 bytes would
    # otherwise decode as an order-63 graph that serialize_graph6 refuses
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert str(exc.value) == "short-form graph6 supports order <= 62, got 63"


def test_serialize_rejects_order_above_62():
    with pytest.raises(Graph6Error):
        serialize_graph6(Graph(63, (0,) * 63))


def test_order_62_roundtrip():
    g = Graph.from_edges(62, [(0, 61), (30, 31)])
    assert parse_graph6(serialize_graph6(g)) == g


@given(graphs(max_order=7))
def test_roundtrip_property(g):
    assert parse_graph6(serialize_graph6(g)) == g
