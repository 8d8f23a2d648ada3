import pytest
from hypothesis import given
from hypothesis import strategies as st

from certigraph import (
    Graph,
    has_no_duplicate_edges,
    has_no_self_loops,
    wellformed,
)


@st.composite
def graphs(draw, max_verts=6, max_edges=10):
    n = draw(st.integers(0, max_verts))
    if n == 0:
        return Graph(0, [])
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return Graph(n, edges)


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_wellformed(demo_graph):
    assert wellformed(demo_graph)
    assert not wellformed(Graph(2, [(0, 2)]))
    assert wellformed(Graph(0, []))


def test_self_loops(demo_graph):
    assert not has_no_self_loops(demo_graph)  # edge 9 is (1, 1)
    assert has_no_self_loops(Graph(3, [(0, 1), (1, 2)]))


def test_duplicate_edges_ordered_vs_undirected(demo_graph):
    assert not has_no_duplicate_edges(demo_graph)  # edges 0 and 8 are both (0, 1)
    g = Graph(2, [(0, 1), (1, 0)])
    assert has_no_duplicate_edges(g)


@given(graphs())
def test_wellformed_monotone_under_edge_removal(g):
    if wellformed(g) and g.num_edges:
        smaller = Graph(g.num_verts, g.edges[:-1])
        assert wellformed(smaller)
