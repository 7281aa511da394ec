"""Shared hypothesis strategies for graph-valued tests."""

import hypothesis.strategies as st

from labeled import graph_of_mask


@st.composite
def graphs(draw, min_order: int = 0, max_order: int = 7):
    """A random labeled graph drawn by order and edge bitmask."""
    n = draw(st.integers(min_order, max_order))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << nbits) - 1)) if nbits else 0
    return graph_of_mask(n, mask)


@st.composite
def graphs_with_vertex(draw, min_order: int = 1, max_order: int = 7):
    g = draw(graphs(min_order=min_order, max_order=max_order))
    v = draw(st.integers(0, g.order - 1))
    return g, v
