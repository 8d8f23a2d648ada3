import random

import pytest
from hypothesis import given, strategies as st

from certigraph.graph import Graph
from certigraph.matching import (
    MatchingTriple,
    MatchingWitness,
    check_matching,
    check_max_matching,
    check_osc,
    check_subset,
    require_matching_inputs,
    weight,
)
from certigraph.oracles import enumerate_graphs, full_weight, oracle_max_matching_size
from certigraph.verdict import PreconditionError

from helpers import (
    matching_mutations,
    mutation_sample,
    random_loopless_graph,
    replace,
    solver_triple,
    verdicts_agree,
)


def test_accepts_twelve_vertex_witness(twelve_graph, twelve_witness):
    assert check_max_matching(MatchingTriple(twelve_graph, twelve_witness)).accepted
    assert twelve_witness.matching.num_edges == oracle_max_matching_size(twelve_graph)


def test_check_subset_allows_swapped_endpoints():
    g = Graph(2, [(0, 1)])
    m = Graph(2, [(1, 0)])
    assert check_subset(g, m, (0,))


def test_check_subset_catches_phantom_edges():
    # A "matching" edge absent from the graph, with an edge map that points
    # at a perfectly valid G-edge id. Skipping the endpoint comparison is
    # exactly the checker bug this module's docstring warns about.
    g = Graph(4, [(2, 3), (1, 2)])
    m = Graph(4, [(0, 1)])
    assert not check_subset(g, m, (0,))
    assert not check_subset(g, m, (1,))


def test_check_subset_range_and_length():
    g = Graph(2, [(0, 1)])
    m = Graph(2, [(0, 1)])
    assert not check_subset(g, m, (1,))
    assert not check_subset(g, m, ())
    assert not check_subset(g, m, (0, 0))


def test_check_matching():
    assert check_matching(Graph(4, [(0, 1), (2, 3)]))
    assert not check_matching(Graph(4, [(0, 1), (1, 2)]))
    assert not check_matching(Graph(3, [(0, 1), (2, 1)]))
    assert check_matching(Graph(0, []))


def test_check_osc(twelve_graph, twelve_witness):
    assert check_osc(twelve_graph, twelve_witness.osc)
    # Relabeling vertex 8 to 0 uncovers its edges (e.g. the one to vertex 3).
    bad = list(twelve_witness.osc)
    bad[8] = 0
    assert not check_osc(twelve_graph, bad)
    # Labels must be vertex-range bounded.
    assert not check_osc(twelve_graph, (12,) * 12)
    # A shared high label covers an edge between its holders.
    assert check_osc(Graph(2, [(0, 1)]), (1, 0))
    assert not check_osc(Graph(2, [(0, 1)]), (0, 0))
    # n = 2 leaves no room for a label >= 2; the 1-label must do the work.
    assert not check_osc(Graph(2, [(0, 1)]), (2, 2))
    assert check_osc(Graph(3, [(0, 1)]), (2, 2, 0))


def test_weight_examples():
    assert weight((1, 1, 2, 2, 2, 3)) == 2 + 1 + 0
    assert weight((0,) * 6) == 0
    assert weight((1,) * 6) == 6
    assert weight(()) == 0


@given(st.lists(st.integers(min_value=0, max_value=8), max_size=8))
def test_weight_matches_recursive_oracle(labels):
    g = Graph(len(labels), [])
    top = max(labels, default=0)
    assert weight(labels) == full_weight(labels, len(labels), top)
    assert weight(labels) <= g.num_verts


def test_cardinality_clause(twelve_graph, twelve_witness):
    # Dropping an M-edge leaves every other condition intact but breaks
    # |M| = cover weight.
    m = Graph(12, twelve_witness.matching.edges[:4])
    w = MatchingWitness(m, twelve_witness.edge_map[:4], twelve_witness.osc)
    v = check_max_matching(MatchingTriple(twelve_graph, w))
    assert not v.accepted
    assert v.clause == "cardinality"


def test_clause_order(twelve_graph, twelve_witness):
    # M-edge 1 is (2, 3); G-edge 0 is (0, 1).
    bad_map = replace(twelve_witness, edge_map=twelve_witness.edge_map[:1] + (0,) + twelve_witness.edge_map[2:])
    v = check_max_matching(MatchingTriple(twelve_graph, bad_map))
    assert v.clause == "subset"
    not_matching = MatchingWitness(
        Graph(12, [(0, 1), (1, 2)]), (0, 1), twelve_witness.osc
    )
    v = check_max_matching(MatchingTriple(twelve_graph, not_matching))
    assert v.clause == "matching"
    bad_osc = replace(twelve_witness, osc=(0,) * 12)
    v = check_max_matching(MatchingTriple(twelve_graph, bad_osc))
    assert v.clause == "osc"


def test_witness_shape(twelve_graph, twelve_witness):
    w = replace(twelve_witness, edge_map=twelve_witness.edge_map[:3])
    v = check_max_matching(MatchingTriple(twelve_graph, w))
    assert v.clause == "witness_shape"
    w = replace(twelve_witness, osc=twelve_witness.osc[:11])
    assert check_max_matching(MatchingTriple(twelve_graph, w)).clause == "witness_shape"
    with pytest.raises(ValueError):
        replace(twelve_witness, osc=(-1,) + twelve_witness.osc[1:])  # labels are nonnegative


def test_empty_graph_accepts_empty_witness():
    t = MatchingTriple(Graph(0, []), MatchingWitness(Graph(0, []), (), ()))
    assert check_max_matching(t).accepted


def test_preconditions(twelve_witness):
    cases = [
        (Graph(12, [(0, 99)]), twelve_witness.matching, "wellformed"),
        (Graph(12, [(0, 1)]), Graph(12, [(0, 99)]), "wellformed_matching"),
        (Graph(12, [(0, 0)]), twelve_witness.matching, "self_loops"),
        (Graph(12, [(0, 1)]), Graph(12, [(2, 2)]), "self_loops_matching"),
        (Graph(12, [(0, 1), (0, 1)]), twelve_witness.matching, "duplicate_edges"),
        (Graph(12, [(0, 1)]), Graph(3, []), "vertex_count"),
    ]
    for g, m, clause in cases:
        with pytest.raises(PreconditionError) as exc:
            require_matching_inputs(g, m)
        assert exc.value.clause == clause


def test_mutation_killing_on_twelve_witness(twelve_graph, twelve_witness):
    rng = random.Random(9)
    t = MatchingTriple(twelve_graph, twelve_witness)
    flips = list(matching_mutations(twelve_graph, t))
    assert len(flips) > 100
    g, w = twelve_graph, twelve_witness
    m = w.matching
    # Wrong lengths, then one violation of each precondition.
    broken = [
        (g, replace(w, edge_map=w.edge_map[:-1])),
        (g, replace(w, osc=w.osc + (0,))),
        (Graph(12, g.edges + ((0, 12),)), w),
        (g, replace(w, matching=Graph(12, m.edges + ((11, 12),)))),
        (Graph(12, g.edges + ((3, 3),)), w),
        (g, replace(w, matching=Graph(12, m.edges + ((5, 5),)))),
        (Graph(12, g.edges + (g.edges[0],)), w),
        (g, replace(w, matching=Graph(13, m.edges))),
    ]
    for mutated in mutation_sample(flips, rng, 150) + [MatchingTriple(*p) for p in broken]:
        agree, checker_says, eval_says = verdicts_agree("matching", mutated)
        assert agree, (mutated.witness, checker_says, eval_says)


def test_decision_property_exhaustive_loopless_n4():
    rng = random.Random(10)
    for n in range(5):
        for g in enumerate_graphs(n, self_loops=False):
            t = solver_triple("matching", g)
            for triple in [t] + mutation_sample(list(matching_mutations(g, t)), rng, 8):
                agree, checker_says, eval_says = verdicts_agree("matching", triple)
                assert agree, (g, triple.witness, checker_says, eval_says)


def test_decision_property_random_graphs():
    rng = random.Random(11)
    for _ in range(150):
        g = random_loopless_graph(rng, rng.randint(1, 9), 12)
        t = solver_triple("matching", g)
        for triple in [t] + mutation_sample(list(matching_mutations(g, t)), rng, 10):
            agree, checker_says, eval_says = verdicts_agree("matching", triple)
            assert agree, (g, triple.witness, checker_says, eval_says)
