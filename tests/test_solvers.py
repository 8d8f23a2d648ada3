import random

import pytest

from certigraph.connectivity import ConnectivityTriple, CutWitness, check_connectivity
from certigraph.graph import Graph
from certigraph.matching import MatchingTriple, check_max_matching
from certigraph.oracles import oracle_connected, oracle_max_matching_size, oracle_mu
from certigraph.shortest_paths import INFINITY, ExtNat, SpTriple, check_shortest_paths
from certigraph.solvers import (
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)
from certigraph.verdict import PreconditionError

from helpers import random_digraph, random_loopless_graph, random_multigraph


def test_connectivity_solver_reproduces_demo_tree(demo_graph, demo_tree):
    res = solve_connectivity(demo_graph)
    assert res.output is True
    assert res.witness == demo_tree


def test_connectivity_solver_cut():
    g = Graph(2, [])
    res = solve_connectivity(g)
    assert res.output is False
    assert res.witness == CutWitness(frozenset({0}))
    assert check_connectivity(ConnectivityTriple(g, False, res.witness)).accepted


def test_connectivity_solver_single_vertex():
    res = solve_connectivity(Graph(1, []))
    assert res.output is True
    assert res.witness.num == (0,)


def test_connectivity_solver_rejects_empty_graph():
    with pytest.raises(PreconditionError) as exc:
        solve_connectivity(Graph(0, []))
    assert exc.value.clause == "empty_graph"


def test_connectivity_solver_random_always_certified():
    rng = random.Random(12)
    for _ in range(150):
        g = random_multigraph(rng, rng.randint(1, 12), 20)
        res = solve_connectivity(g)
        assert res.output == oracle_connected(g)
        assert check_connectivity(ConnectivityTriple(g, res.output, res.witness)).accepted


def test_sp_solver_reproduces_zero_cycle_witness(
    zero_cycle_graph, zero_cycle_cost, zero_cycle_witness
):
    res = solve_shortest_paths(zero_cycle_graph, zero_cycle_cost, 0)
    assert res.witness == zero_cycle_witness
    assert res.output == zero_cycle_witness.dist


def test_sp_solver_source_only():
    res = solve_shortest_paths(Graph(1, []), (), 0)
    assert res.output == (ExtNat(0),)


def test_sp_solver_unreachable_marked_infinite():
    g = Graph(3, [(0, 1)])
    res = solve_shortest_paths(g, (5,), 0)
    assert res.output == (ExtNat(0), ExtNat(5), INFINITY)
    assert res.witness.num == (ExtNat(0), ExtNat(1), INFINITY)


def test_sp_solver_zero_cost_depths_form_tree():
    # An all-zero-cost cycle: every vertex is at distance 0, and the depth
    # numbers must still come from a genuine tree (no circular parents).
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    res = solve_shortest_paths(g, (0, 0, 0), 0)
    assert res.output == (ExtNat(0), ExtNat(0), ExtNat(0))
    assert res.witness.num == (ExtNat(0), ExtNat(1), ExtNat(2))
    assert check_shortest_paths(SpTriple(g, res.witness)).accepted


def test_sp_solver_preconditions():
    with pytest.raises(PreconditionError) as exc:
        solve_shortest_paths(Graph(2, []), (), 5)
    assert exc.value.clause == "source"
    with pytest.raises(PreconditionError) as exc:
        solve_shortest_paths(Graph(2, [(0, 1)]), (), 0)
    assert exc.value.clause == "cost_shape"
    with pytest.raises(PreconditionError) as exc:
        solve_shortest_paths(Graph(2, [(0, 1)]), (-3,), 0)
    assert exc.value.clause == "cost_negative"


def test_sp_solver_random_always_certified_and_correct():
    rng = random.Random(13)
    for _ in range(150):
        g, cost = random_digraph(rng, rng.randint(1, 10), 20, 4)
        source = rng.randrange(g.num_verts)
        res = solve_shortest_paths(g, cost, source)
        assert check_shortest_paths(SpTriple(g, res.witness)).accepted
        assert tuple(res.output) == tuple(oracle_mu(g, cost, source))


def test_matching_solver_on_twelve_graph(twelve_graph, twelve_witness):
    # Maximum matchings are not unique: the solver deterministically picks
    # a different one than the hand-built fixture, at the same cardinality
    # and with the same cover labels.
    res = solve_max_matching(twelve_graph)
    assert res.witness.edge_map == (0, 3, 5, 9, 11)
    assert res.witness.osc == twelve_witness.osc
    assert res.output.num_edges == twelve_witness.matching.num_edges == 5
    assert check_max_matching(MatchingTriple(twelve_graph, res.witness)).accepted


def test_matching_solver_trivial_graphs():
    res = solve_max_matching(Graph(0, []))
    assert res.output.num_edges == 0
    res = solve_max_matching(Graph(1, []))
    assert res.witness.osc == (0,)
    res = solve_max_matching(Graph(2, [(0, 1)]))
    assert res.output.num_edges == 1
    assert check_max_matching(MatchingTriple(Graph(2, [(0, 1)]), res.witness)).accepted


def test_matching_solver_odd_cycle():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = solve_max_matching(g)
    assert res.output.num_edges == 2
    assert check_max_matching(MatchingTriple(g, res.witness)).accepted
    # A 5-cycle needs a shared label >= 2 on some vertices: a single
    # label-1 vertex cannot cover two disjoint edges.
    assert max(res.witness.osc) >= 2


def test_solvers_refuse_vertex_counts_past_2_to_the_31_minus_1():
    g = Graph(2**31, ())
    for solve in (solve_connectivity, solve_max_matching, lambda g: solve_shortest_paths(g, (), 0)):
        with pytest.raises(PreconditionError) as exc:
            solve(g)
        assert exc.value.clause == "vertex_limit"


def test_matching_solver_preconditions():
    with pytest.raises(PreconditionError) as exc:
        solve_max_matching(Graph(2, [(0, 0)]))
    assert exc.value.clause == "self_loops"
    with pytest.raises(PreconditionError) as exc:
        solve_max_matching(Graph(2, [(0, 1), (0, 1)]))
    assert exc.value.clause == "duplicate_edges"


def test_matching_solver_random_always_certified_and_maximum():
    rng = random.Random(14)
    for _ in range(120):
        g = random_loopless_graph(rng, rng.randint(0, 10), 16)
        res = solve_max_matching(g)
        assert check_max_matching(MatchingTriple(g, res.witness)).accepted
        assert res.output.num_edges == oracle_max_matching_size(g)
        assert all(0 <= l < max(g.num_verts, 1) for l in res.witness.osc) or g.num_verts == 0


def test_gcd_solver_examples():
    assert solve_gcd(12, 8) == type(solve_gcd(12, 8))(4, (1, -1))
    res = solve_gcd(240, 46)
    assert (res.output, res.witness) == (2, (-9, 47))
    assert solve_gcd(7, 0).output == 7
    assert solve_gcd(0, 7).output == 7
    assert solve_gcd(1, 1).output == 1


def test_gcd_solver_preconditions():
    with pytest.raises(PreconditionError):
        solve_gcd(0, 0)
    with pytest.raises(PreconditionError):
        solve_gcd(-4, 2)
