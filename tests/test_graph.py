import pytest
from hypothesis import given
from hypothesis import strategies as st

from certigraph.graph import Graph, wellformed
from certigraph.matching import has_no_duplicate_edges, has_no_self_loops


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


def test_wellformed_refuses_an_endpoint_equal_to_n():
    # Each side on its own, so that neither bound can be relaxed to <= n.
    assert not wellformed(Graph(2, [(2, 0)]))
    assert not wellformed(Graph(2, [(0, 2)]))
    assert wellformed(Graph(2, [(1, 0), (0, 1)]))


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


@pytest.mark.parametrize(
    "pairs",
    [
        [[0, 1], [1, 2]],
        ((0, 1), (1, 2)),
        iter([(0, 1), [1, 2]]),
        (pair for pair in [(0, 1), (1, 2)]),
    ],
)
def test_edges_are_stored_as_exact_tuple_pairs(pairs):
    g = Graph(3, pairs)
    assert type(g.edges) is tuple
    assert all(type(e) is tuple and len(e) == 2 for e in g.edges)
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), (), 5])
def test_an_edge_that_is_not_a_pair_fails_at_construction(edge):
    with pytest.raises(TypeError):
        Graph(3, [(0, 1), edge])
