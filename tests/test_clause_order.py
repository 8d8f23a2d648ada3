"""Each checker reports the first failing clause, in its documented order.

The orders are restated here from the module docstrings rather than read
from the modules' clause tuples, so a reordered tuple fails these tests.
"""

import random

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
from certigraph.matching import (
    MatchingTriple,
    MatchingWitness,
    check_cardinality,
    check_matching,
    check_max_matching,
    check_osc,
    check_subset,
)
from certigraph.shortest_paths import (
    ExtNat,
    SpTriple,
    check_just,
    check_no_path,
    check_shortest_paths,
    check_start_val,
    check_trian,
)
from certigraph.verdict import ACCEPT, first_rejection, reject

from helpers import (
    connectivity_mutations,
    matching_mutations,
    mutation_sample,
    random_digraph,
    random_loopless_graph,
    random_multigraph,
    replace,
    solver_triple,
    sp_mutations,
)

TREE_ORDER = (check_r, check_parent_num)
CUT_ORDER = (check_cut,)
SP_ORDER = (lambda g, w: check_start_val(w), check_no_path, check_trian, check_just)
MATCHING_ORDER = (
    lambda g, w: check_subset(g, w.matching, w.edge_map),
    lambda g, w: check_matching(w.matching),
    lambda g, w: check_osc(g, w.osc),
    lambda g, w: check_cardinality(w.matching, w.osc),
)


def failing(order, g, w) -> list:
    return [v for v in (clause(g, w) for clause in order) if not v]


def expected(order, g, w):
    return next(iter(failing(order, g, w)), ACCEPT)


def test_first_rejection_stops_at_the_first_failing_clause():
    def never(*args):
        raise AssertionError("a clause after the rejecting one ran")

    clauses = (lambda x: ACCEPT, lambda x: reject("b", str(x)), never)
    assert first_rejection(clauses, 7) == reject("b", "7")
    assert first_rejection(clauses[:1], 7) is ACCEPT
    assert first_rejection((), 7) is ACCEPT


def test_tree_shape_before_r(demo_graph):
    w = SpanningTreeWitness(7, [None, 0], [0, 1])
    assert check_connectivity(ConnectivityTriple(demo_graph, True, w)).clause == "witness_shape"


def test_tree_r_before_parent_num(demo_graph, demo_tree):
    w = SpanningTreeWitness(2, demo_tree.parent_edge, (0, 1, 1, 1, 3))
    assert not check_r(demo_graph, w) and not check_parent_num(demo_graph, w)
    assert check_connectivity(ConnectivityTriple(demo_graph, True, w)) == check_r(demo_graph, w)


def at(seq, i, value):
    return seq[:i] + (value,) + seq[i + 1 :]


def test_sp_shape_before_start_val(zero_cycle_graph, zero_cycle_witness):
    w = replace(zero_cycle_witness, dist=at(zero_cycle_witness.dist, 0, ExtNat(1)))
    assert not check_start_val(w)
    w = replace(w, cost=w.cost[:5])
    assert check_shortest_paths(SpTriple(zero_cycle_graph, w)).clause == "witness_shape"


def test_sp_clauses_in_order(zero_cycle_graph, zero_cycle_witness):
    g, w = zero_cycle_graph, zero_cycle_witness
    bad_start = at(w.dist, 0, ExtNat(1))
    # Vertex 4 is unreached: a finite distance there breaks no_path.
    finite_unreached = at(w.dist, 4, ExtNat(9))
    # dist[2] = 2 breaks trian: edge 1 runs from the source at cost 1.
    inflated = at(w.dist, 2, ExtNat(2))
    cases = [
        (replace(w, dist=at(bad_start, 4, ExtNat(9))), "start_val", "no_path"),
        (replace(w, dist=at(bad_start, 2, ExtNat(3))), "start_val", "trian"),
        (replace(w, dist=at(finite_unreached, 2, ExtNat(2))), "no_path", "trian"),
        (replace(w, dist=inflated, num=at(w.num, 3, ExtNat(1))), "trian", "just"),
    ]
    for bad, first, second in cases:
        broken = [v.clause for v in failing(SP_ORDER, g, bad)]
        assert broken[:1] == [first] and second in broken, broken
        assert check_shortest_paths(SpTriple(g, bad)) == failing(SP_ORDER, g, bad)[0]


def test_matching_clauses_in_order(twelve_graph, twelve_witness):
    g, w = twelve_graph, twelve_witness
    no_cover = (0,) * 12
    # M-edge 1 is (2, 3); G-edge 0 is (0, 1).
    off_graph_map = at(w.edge_map, 1, 0)
    path = Graph(12, [(0, 1), (1, 2)])
    cases = [
        (replace(w, edge_map=off_graph_map, osc=no_cover), "subset", "osc"),
        (MatchingWitness(path, (0, 0), w.osc), "subset", "matching"),
        (MatchingWitness(path, (0, 1), no_cover), "matching", "osc"),
        (replace(w, osc=no_cover), "osc", "cardinality"),
    ]
    for bad, first, second in cases:
        broken = [v.clause for v in failing(MATCHING_ORDER, g, bad)]
        assert broken[:1] == [first] and second in broken, broken
        assert check_max_matching(MatchingTriple(g, bad)) == failing(MATCHING_ORDER, g, bad)[0]
    short_map = replace(w, edge_map=off_graph_map[:3])
    assert check_max_matching(MatchingTriple(g, short_map)).clause == "witness_shape"


def test_verdict_is_first_failing_clause_on_mutations():
    """On the shared mutation samples, every checker equals its documented order."""
    rng = random.Random(33)
    multiple = {"tree": 0, "sp": 0, "matching": 0}
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 7), 10)
        t = solver_triple("connected", g)
        for m in mutation_sample(list(connectivity_mutations(g, t)), rng):
            tree = isinstance(m.witness, SpanningTreeWitness)
            order = TREE_ORDER if tree else CUT_ORDER
            assert check_connectivity(m) == expected(order, g, m.witness)
            multiple["tree"] += tree and len(failing(order, g, m.witness)) > 1

        n = rng.randint(1, 7)
        g, cost = random_digraph(rng, n, 12, 3)
        t = solver_triple("sp", g, cost, rng.randrange(n))
        for m in mutation_sample(list(sp_mutations(g, t)), rng):
            assert check_shortest_paths(m) == expected(SP_ORDER, g, m.witness)
            multiple["sp"] += len(failing(SP_ORDER, g, m.witness)) > 1

        g = random_loopless_graph(rng, rng.randint(0, 8), 14)
        t = solver_triple("matching", g)
        for m in mutation_sample(list(matching_mutations(g, t)), rng):
            assert check_max_matching(m) == expected(MATCHING_ORDER, g, m.witness)
            multiple["matching"] += len(failing(MATCHING_ORDER, g, m.witness)) > 1
    # The order is only tested where a witness breaks more than one clause.
    assert min(multiple.values()) > 20, multiple


def test_cut_has_one_clause(demo_graph):
    w = CutWitness(frozenset({0}))
    assert check_connectivity(ConnectivityTriple(demo_graph, False, w)) == check_cut(demo_graph, w)
