import random

import pytest

from certigraph.graph import Graph
from certigraph.oracles import enumerate_graphs, oracle_mu
from certigraph.shortest_paths import (
    INFINITY,
    ExtNat,
    SpTriple,
    SpWitness,
    check_just,
    check_no_path,
    check_shortest_paths,
    check_start_val,
    check_trian,
)
from certigraph.verdict import PreconditionError

from helpers import (
    mutation_sample,
    random_digraph,
    replace,
    solver_triple,
    sp_mutations,
    verdicts_agree,
)


def replace_at(values, index, value):
    values = tuple(values)
    return values[:index] + (value,) + values[index + 1 :]


def test_accepts_zero_cycle_witness(zero_cycle_graph, zero_cycle_witness):
    v = check_shortest_paths(SpTriple(zero_cycle_graph, zero_cycle_witness))
    assert v.accepted


def test_witness_matches_oracle(zero_cycle_graph, zero_cycle_cost, zero_cycle_witness):
    mu = oracle_mu(zero_cycle_graph, zero_cycle_cost, 0)
    assert tuple(zero_cycle_witness.dist) == tuple(mu)


def test_start_val(zero_cycle_graph, zero_cycle_witness):
    assert check_start_val(zero_cycle_witness)
    w = replace(zero_cycle_witness, dist=replace_at(zero_cycle_witness.dist, 0, ExtNat(1)))
    assert not check_start_val(w)
    v = check_shortest_paths(SpTriple(zero_cycle_graph, w))
    assert v.clause == "start_val"


def test_no_path(zero_cycle_graph, zero_cycle_witness):
    assert check_no_path(zero_cycle_graph, zero_cycle_witness)
    # Finite dist with infinite num (and vice versa) breaks the equivalence.
    w = replace(zero_cycle_witness, dist=replace_at(zero_cycle_witness.dist, 4, ExtNat(9)))
    assert not check_no_path(zero_cycle_graph, w)
    assert check_shortest_paths(SpTriple(zero_cycle_graph, w)).clause == "no_path"
    w = replace(zero_cycle_witness, num=replace_at(zero_cycle_witness.num, 4, ExtNat(0)))
    assert not check_no_path(zero_cycle_graph, w)


def test_trian_catches_inflated_distance(zero_cycle_graph, zero_cycle_witness):
    # dist[2] = 2 still satisfies edge 2 (from vertex 1) but not edge 1
    # (straight from the source), so the fixpoint condition fails.
    w = replace(zero_cycle_witness, dist=replace_at(zero_cycle_witness.dist, 2, ExtNat(2)))
    assert not check_trian(zero_cycle_graph, w)
    v = check_shortest_paths(SpTriple(zero_cycle_graph, w))
    assert not v.accepted
    assert v.clause == "trian"


def test_trian_holds_into_infinity(zero_cycle_graph, zero_cycle_witness):
    # Edges into the unreached vertex don't exist; its self-loop compares
    # INF <= INF + 2, which holds.
    assert check_trian(zero_cycle_graph, zero_cycle_witness)


def test_just_requires_matching_depth(zero_cycle_graph, zero_cycle_witness):
    w = replace(zero_cycle_witness, num=replace_at(zero_cycle_witness.num, 3, ExtNat(1)))
    assert not check_just(zero_cycle_graph, w)
    assert check_shortest_paths(SpTriple(zero_cycle_graph, w)).clause == "just"


def test_just_requires_edge_into_vertex(zero_cycle_graph, zero_cycle_witness):
    # Edge 4 ends at vertex 1, not vertex 3.
    w = replace(zero_cycle_witness, parent_edge=replace_at(zero_cycle_witness.parent_edge, 3, 4))
    assert not check_just(zero_cycle_graph, w)


def test_just_ignores_unreached_and_source(zero_cycle_graph, zero_cycle_witness):
    # Vertex 0 (source) and vertex 4 (unreached) carry no parent edge and
    # that is fine.
    assert check_just(zero_cycle_graph, zero_cycle_witness)


def test_unreached_vertex_cannot_fake_finite_values(zero_cycle_graph, zero_cycle_witness):
    # Claiming dist[4] = 7, num[4] = 1 passes no_path (both finite) but
    # vertex 4 then needs a justifying parent edge and has none.
    w = replace(
        zero_cycle_witness,
        dist=replace_at(zero_cycle_witness.dist, 4, ExtNat(7)),
        num=replace_at(zero_cycle_witness.num, 4, ExtNat(1)),
    )
    v = check_shortest_paths(SpTriple(zero_cycle_graph, w))
    assert not v.accepted
    assert v.clause == "just"


def test_zero_cost_circular_justification_is_rejected(zero_cycle_graph, zero_cycle_witness):
    # Vertices 1 and 3 justify each other through the zero-cost two-cycle,
    # claiming distance 0 for both. Every dist equality holds; only the
    # depth chain cannot be made consistent.
    w = replace(
        zero_cycle_witness,
        dist=(ExtNat(0), ExtNat(0), ExtNat(1), ExtNat(0), INFINITY),
        num=(ExtNat(0), ExtNat(1), ExtNat(1), ExtNat(2), INFINITY),
        parent_edge=(None, 4, 1, 3, None),
    )
    assert check_start_val(w)
    assert check_no_path(zero_cycle_graph, w)
    assert check_trian(zero_cycle_graph, w)
    v = check_shortest_paths(SpTriple(zero_cycle_graph, w))
    assert not v.accepted
    assert v.clause == "just"


def test_witness_shape(zero_cycle_graph, zero_cycle_witness):
    w = replace(zero_cycle_witness, dist=zero_cycle_witness.dist[:4])
    v = check_shortest_paths(SpTriple(zero_cycle_graph, w))
    assert v.clause == "witness_shape"
    w = replace(zero_cycle_witness, cost=zero_cycle_witness.cost[:5])
    assert check_shortest_paths(SpTriple(zero_cycle_graph, w)).clause == "witness_shape"


def test_preconditions(zero_cycle_witness):
    bad_graph = Graph(5, [(0, 9)] + [(0, 1)] * 5)
    with pytest.raises(PreconditionError) as exc:
        check_shortest_paths(SpTriple(bad_graph, zero_cycle_witness))
    assert exc.value.clause == "wellformed"
    g = Graph(5, [(0, 1)] * 6)
    w = replace(zero_cycle_witness, source=9)
    with pytest.raises(PreconditionError) as exc:
        check_shortest_paths(SpTriple(g, w))
    assert exc.value.clause == "source"


def test_negative_cost_rejected_at_construction():
    with pytest.raises(ValueError):
        SpWitness(0, (ExtNat(0),), (ExtNat(0),), (None,), (-1,))


def test_zero_cost_edge_keeps_witness_valid(zero_cycle_graph, zero_cycle_witness):
    """Lowering edge 2's cost to 0 leaves the solver witness acceptable."""
    cost = replace_at(zero_cycle_witness.cost, 2, 0)
    t = solver_triple("sp", zero_cycle_graph, cost, 0)
    assert check_shortest_paths(t).accepted
    # The fixture's distances remain correct too: edge 2 leads to vertex 2,
    # already at distance 1 via edge 1, so nothing shrinks.
    w = replace(zero_cycle_witness, cost=cost)
    assert check_shortest_paths(SpTriple(zero_cycle_graph, w)).accepted


def test_mutation_killing_on_zero_cycle_witness(zero_cycle_graph, zero_cycle_witness):
    g, w = zero_cycle_graph, zero_cycle_witness
    flips = list(sp_mutations(g, SpTriple(g, w)))
    assert len(flips) > 50
    # Wrong lengths, an out-of-range endpoint and bad sources.
    broken = [
        SpTriple(g, replace(w, dist=w.dist[:-1])),
        SpTriple(g, replace(w, num=w.num + (INFINITY,))),
        SpTriple(g, replace(w, parent_edge=w.parent_edge[:-1])),
        SpTriple(g, replace(w, cost=w.cost + (0,))),
        SpTriple(Graph(5, g.edges[:-1] + ((4, 5),)), w),
        SpTriple(g, replace(w, source=5)),
        SpTriple(g, replace(w, source=-1)),
    ]
    for mutated in flips + broken:
        agree, checker_says, eval_says = verdicts_agree("sp", mutated)
        assert agree, (mutated.witness, checker_says, eval_says)


def test_decision_property_exhaustive_small_digraphs():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for g in enumerate_graphs(n, directed=True, self_loops=True):
            cost = tuple(i % 3 for i in range(g.num_edges))
            t = solver_triple("sp", g, cost, 0)
            for triple in [t] + mutation_sample(list(sp_mutations(g, t)), rng, 6):
                agree, checker_says, eval_says = verdicts_agree("sp", triple)
                assert agree, (g, triple.witness, checker_says, eval_says)


def test_decision_property_random_digraphs():
    rng = random.Random(8)
    for _ in range(200):
        g, cost = random_digraph(rng, rng.randint(1, 7), 12, 3)
        t = solver_triple("sp", g, cost, rng.randrange(g.num_verts))
        for triple in [t] + mutation_sample(list(sp_mutations(g, t)), rng, 10):
            agree, checker_says, eval_says = verdicts_agree("sp", triple)
            assert agree, (g, triple.witness, checker_says, eval_says)
