import random
from dataclasses import replace

import pytest

from certigraph.connectivity import (
    ConnectivityTriple,
    CutWitness,
    SpanningTreeWitness,
    check_connectivity,
    check_cut,
    check_parent_num,
    check_r,
)
from certigraph.graph import Graph
from certigraph.oracles import enumerate_graphs
from certigraph.verdict import PreconditionError

from helpers import (
    connectivity_mutations,
    mutation_sample,
    random_multigraph,
    solver_triple,
    verdicts_agree,
)


def test_check_r(demo_graph, demo_tree):
    assert check_r(demo_graph, demo_tree)
    assert not check_r(demo_graph, SpanningTreeWitness(1, [None, 0, 1, 2, 6], [0, 1, 1, 1, 2]))
    assert not check_r(demo_graph, SpanningTreeWitness(0, [0, 0, 1, 2, 6], [0, 1, 1, 1, 2]))
    assert not check_r(demo_graph, SpanningTreeWitness(0, [None, 0, 1, 2, 6], [1, 1, 1, 1, 2]))
    # root must be a vertex
    assert not check_r(Graph(0, []), SpanningTreeWitness(0, [], []))


def test_check_parent_num(demo_graph, demo_tree):
    assert check_parent_num(demo_graph, demo_tree)


def test_parent_edge_orientation_both_ways(demo_graph, demo_tree):
    # Vertex 1's parent edge (0, 1) lists the child second; vertex 1 could
    # equally be certified through the parallel edge 8.
    w = SpanningTreeWitness(0, [None, 8, 1, 2, 6], [0, 1, 1, 1, 2])
    assert check_parent_num(demo_graph, w)


def test_parent_num_rejects_wrong_depth(demo_graph, demo_tree):
    w = SpanningTreeWitness(0, [None, 0, 1, 2, 6], [0, 1, 1, 1, 3])
    assert not check_parent_num(demo_graph, w)


def test_parent_num_rejects_self_loop_parent(demo_graph):
    # Edge 9 is the self-loop (1, 1): it can never hang vertex 1 one level down.
    w = SpanningTreeWitness(0, [None, 9, 1, 2, 6], [0, 1, 1, 1, 2])
    assert not check_parent_num(demo_graph, w)


def test_parent_num_rejects_missing_or_bad_edge(demo_graph):
    assert not check_parent_num(
        demo_graph, SpanningTreeWitness(0, [None, None, 1, 2, 6], [0, 1, 1, 1, 2])
    )
    assert not check_parent_num(
        demo_graph, SpanningTreeWitness(0, [None, 10, 1, 2, 6], [0, 1, 1, 1, 2])
    )


def test_check_cut(demo_graph, zero_cycle_graph):
    assert not check_cut(demo_graph, CutWitness(frozenset({4})))  # edge 6 crosses
    # In the zero-cycle digraph read undirected, vertex 4 only has its loop.
    assert check_cut(zero_cycle_graph, CutWitness(frozenset({4})))
    assert not check_cut(zero_cycle_graph, CutWitness(frozenset()))
    assert not check_cut(zero_cycle_graph, CutWitness(frozenset(range(5))))
    assert not check_cut(zero_cycle_graph, CutWitness(frozenset({7})))


def test_cut_rejects_the_vertex_n():
    # {n} is not a vertex set: without the range check no edge crosses it.
    v = check_cut(Graph(2, [(0, 1)]), CutWitness(frozenset({2})))
    assert (v.accepted, v.clause) == (False, "cut")


def test_cut_rejects_on_single_vertex_graph():
    g = Graph(1, [])
    assert not check_cut(g, CutWitness(frozenset({0})))


def test_checker_accepts_demo(demo_graph, demo_tree):
    t = ConnectivityTriple(demo_graph, True, demo_tree)
    v = check_connectivity(t)
    assert v.accepted


def test_checker_rejects_bad_cut_claim(demo_graph):
    t = ConnectivityTriple(demo_graph, False, CutWitness(frozenset({0})))
    v = check_connectivity(t)
    assert not v.accepted
    assert v.clause == "cut"


def test_checker_names_first_clause(demo_graph, demo_tree):
    bad_root = SpanningTreeWitness(2, demo_tree.parent_edge, demo_tree.num)
    v = check_connectivity(ConnectivityTriple(demo_graph, True, bad_root))
    assert v.clause == "r"
    bad_depth = SpanningTreeWitness(0, demo_tree.parent_edge, (0, 1, 1, 1, 3))
    v = check_connectivity(ConnectivityTriple(demo_graph, True, bad_depth))
    assert v.clause == "parent_num"


def test_witness_shape_rejected(demo_graph):
    w = SpanningTreeWitness(0, [None, 0], [0, 1])
    v = check_connectivity(ConnectivityTriple(demo_graph, True, w))
    assert not v.accepted
    assert v.clause == "witness_shape"


def test_malformed_graph_is_precondition_violation(demo_tree):
    g = Graph(5, [(0, 7)])
    with pytest.raises(PreconditionError):
        check_connectivity(ConnectivityTriple(g, True, demo_tree))


def test_triple_requires_matching_variant(demo_graph, demo_tree):
    with pytest.raises(ValueError):
        ConnectivityTriple(demo_graph, False, demo_tree)
    with pytest.raises(ValueError):
        ConnectivityTriple(demo_graph, True, CutWitness(frozenset({0})))
    with pytest.raises(ValueError):
        SpanningTreeWitness(0, [None, 0], [0, -1])  # depths are nonnegative


def test_empty_graph_rejects_both_witnesses():
    g = Graph(0, [])
    assert not check_connectivity(ConnectivityTriple(g, True, SpanningTreeWitness(0, [], [])))
    assert not check_connectivity(ConnectivityTriple(g, False, CutWitness(frozenset())))


def test_mutation_killing_on_demo_witness(demo_graph, demo_tree):
    """Any single-field flip is rejected unless the evaluator still approves;
    wrong array lengths and malformed graphs get the same answer from both."""
    t = ConnectivityTriple(demo_graph, True, demo_tree)
    flips = list(connectivity_mutations(demo_graph, t))
    assert len(flips) > 50
    cut = CutWitness(frozenset({0}))
    broken = [
        ConnectivityTriple(demo_graph, True, replace(demo_tree, parent_edge=(None,) * 4)),
        ConnectivityTriple(demo_graph, True, replace(demo_tree, num=demo_tree.num + (3,))),
        ConnectivityTriple(Graph(5, demo_graph.edges + ((4, 5),)), True, demo_tree),
        ConnectivityTriple(Graph(2, [(-1, 1)]), False, cut),
    ]
    for mutated in flips + broken:
        agree, checker_says, eval_says = verdicts_agree("connected", mutated)
        assert agree, (mutated.witness, checker_says, eval_says)


def test_decision_property_exhaustive_loopless_n5():
    rng = random.Random(5)
    for n in range(1, 6):
        for g in enumerate_graphs(n, self_loops=False):
            t = solver_triple("connected", g)
            for triple in [t] + mutation_sample(list(connectivity_mutations(g, t)), rng, 8):
                agree, checker_says, eval_says = verdicts_agree("connected", triple)
                assert agree, (g, triple.witness, checker_says, eval_says)


def test_decision_property_random_multigraphs():
    rng = random.Random(6)
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(1, 8), 14)
        t = solver_triple("connected", g)
        for triple in [t] + mutation_sample(list(connectivity_mutations(g, t)), rng, 10):
            agree, checker_says, eval_says = verdicts_agree("connected", triple)
            assert agree, (g, triple.witness, checker_says, eval_says)
