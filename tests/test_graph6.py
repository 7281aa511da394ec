"""graph6 codec: an independent bit-by-bit reference, round trips and
malformed-input handling."""

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

from labeled import edge_pairs, graph_of_mask
from strategies import graphs


def reference_graph6(g):
    """graph6 spelled bit by bit: the pairs (i, j) in column-major order, each
    bit x(i, j) appended most significant first, six bits per byte, the last
    byte zero-padded, every byte offset by 63."""
    out = [chr(g.order + 63)]
    group = 0
    nbits = 0
    for i, j in edge_pairs(g.order):
        group = (group << 1) | ((g.adj[i] >> j) & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(group + 63))
            group = 0
            nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + 63))
    return "".join(out)


def _reference_cases():
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            yield graph_of_mask(n, mask)
    rng = random.Random(6262)
    for _ in range(300):
        n = rng.randint(7, 62)
        yield graph_of_mask(n, rng.getrandbits(n * (n - 1) // 2))


def test_codec_matches_the_bit_by_bit_reference():
    # every graph up to order 6, then seeded random graphs up to order 62
    for g in _reference_cases():
        text = reference_graph6(g)
        assert serialize_graph6(g) == text
        assert parse_graph6(text) == g


def test_reference_spells_known_lines():
    # order 3 lists x(0,1), x(0,2), x(1,2): one edge is 100, 010 or 001,
    # padded to six bits, so 32, 16 or 8 plus 63
    assert reference_graph6(Graph.from_edges(3, [(0, 1)])) == "B_"
    assert reference_graph6(Graph.from_edges(3, [(0, 2)])) == "BO"
    assert reference_graph6(Graph.from_edges(3, [(1, 2)])) == "BG"
    assert reference_graph6(complete_graph(5)) == "D~{"


def test_single_vertex_serializes_to_at_sign():
    assert serialize_graph6(complete_graph(1)) == "@"


def test_question_mark_is_the_null_graph():
    g = parse_graph6("?")
    assert g.order == 0
    assert g.adj == ()


def test_cycle_roundtrip_is_a_cycle():
    g = parse_graph6(serialize_graph6(cycle_graph(4)))
    assert g.order == 4
    assert len(list(g.edges())) == 4
    assert all(g.adj[v].bit_count() == 2 for v in range(4))


def test_roundtrip_all_graphs_up_to_order_5():
    for n in range(6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            g = graph_of_mask(n, mask)
            assert parse_graph6(serialize_graph6(g)) == g


def test_roundtrip_1000_random_graphs_up_to_order_10():
    rng = random.Random(20240601)
    for _ in range(1000):
        n = rng.randint(0, 10)
        nbits = n * (n - 1) // 2
        g = graph_of_mask(n, rng.getrandbits(nbits) if nbits else 0)
        assert parse_graph6(serialize_graph6(g)) == g


def test_string_roundtrip_on_valid_inputs():
    # serialize . parse is the identity on strings the encoder can produce
    for n in range(5):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            text = serialize_graph6(graph_of_mask(n, mask))
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
