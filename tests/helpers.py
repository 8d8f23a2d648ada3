"""Test-side machinery: mutation spaces, random instances, verdict comparison.

The decision-property tests need to feed the checkers and the direct
predicate evaluator the same triples, including slightly broken ones;
everything that generates or perturbs triples lives here so the module
tests and the acceptance suite share one implementation.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from typing import Iterator

from certigraph.connectivity import ConnectivityTriple, CutWitness, check_connectivity
from certigraph.gcd import check_gcd
from certigraph.graph import Graph
from certigraph.matching import MatchingTriple, check_max_matching
from certigraph.oracles import eval_connected, eval_gcd, eval_matching, eval_sp
from certigraph.shortest_paths import INFINITY, ExtNat, SpTriple, check_shortest_paths
from certigraph.solvers import solve_connectivity, solve_max_matching, solve_shortest_paths
from certigraph.verdict import PreconditionError

# Each problem's checker and the oracle's direct evaluation of its predicate.
PROBLEMS = {
    "connected": (check_connectivity, eval_connected),
    "sp": (check_shortest_paths, eval_sp),
    "matching": (check_max_matching, eval_matching),
    "gcd": (check_gcd, eval_gcd),
}


def verdicts_agree(problem: str, triple) -> tuple[bool, object, object]:
    """Run checker and direct evaluator; return (agree, checker, evaluator)."""
    check, evaluate = PROBLEMS[problem]
    try:
        checker_says: object = bool(check(triple))
    except PreconditionError:
        checker_says = "precondition"
    try:
        eval_says: object = bool(evaluate(triple))
    except PreconditionError:
        eval_says = "precondition"
    return checker_says == eval_says, checker_says, eval_says


def line_events(fn, *args) -> tuple[int, object]:
    """How many lines of certigraph code ``fn(*args)`` runs, and what it returns.

    Only that call is traced. Line events repeat exactly from run to run, so
    their growth with input size pins a function's Python-level cost where
    timings are too noisy.
    """
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_globals.get("__name__", "").startswith("certigraph") else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return count, result


def solver_triple(problem: str, g: Graph, cost=None, source=0):
    if problem == "connected":
        res = solve_connectivity(g)
        return ConnectivityTriple(g, res.output, res.witness)
    if problem == "sp":
        res = solve_shortest_paths(g, cost, source)
        return SpTriple(g, res.witness)
    if problem == "matching":
        res = solve_max_matching(g)
        return MatchingTriple(g, res.witness)
    raise ValueError(problem)


def connectivity_mutations(g: Graph, t: ConnectivityTriple) -> Iterator[ConnectivityTriple]:
    """All single-field perturbations of a connectivity witness."""
    w = t.witness
    if isinstance(w, CutWitness):
        for v in range(g.num_verts):
            flipped = w.cut_set ^ {v}
            yield ConnectivityTriple(g, t.connected_claim, CutWitness(flipped))
        return
    n, m = g.num_verts, g.num_edges
    for r in range(n):
        if r != w.root:
            yield ConnectivityTriple(g, True, replace(w, root=r))
    for v in range(n):
        for k in range(n):
            if k != w.num[v]:
                num = w.num[:v] + (k,) + w.num[v + 1 :]
                yield ConnectivityTriple(g, True, replace(w, num=num))
        for e in (None, *range(m)):
            if e != w.parent_edge[v]:
                pe = w.parent_edge[:v] + (e,) + w.parent_edge[v + 1 :]
                yield ConnectivityTriple(g, True, replace(w, parent_edge=pe))


_SP_VALUES = (ExtNat(0), ExtNat(1), ExtNat(2), ExtNat(3), INFINITY)


def sp_mutations(g: Graph, t: SpTriple) -> Iterator[SpTriple]:
    """All single-field perturbations of an sp witness over small value pools."""
    w = t.witness
    n, m = g.num_verts, g.num_edges
    for v in range(n):
        for d in _SP_VALUES:
            if d != w.dist[v]:
                yield SpTriple(g, replace(w, dist=w.dist[:v] + (d,) + w.dist[v + 1 :]))
        for k in _SP_VALUES:
            if k != w.num[v]:
                yield SpTriple(g, replace(w, num=w.num[:v] + (k,) + w.num[v + 1 :]))
        for e in (None, *range(m)):
            if e != w.parent_edge[v]:
                pe = w.parent_edge[:v] + (e,) + w.parent_edge[v + 1 :]
                yield SpTriple(g, replace(w, parent_edge=pe))


def matching_mutations(g: Graph, t: MatchingTriple) -> Iterator[MatchingTriple]:
    """Single-field perturbations of the edge map and the cover labels.

    Value pools deliberately include one out-of-range value apiece, so the
    range clauses of the checker are compared against the evaluator too.
    """
    w = t.witness
    n = g.num_verts
    for i in range(len(w.edge_map)):
        for fe in range(g.num_edges + 1):
            if fe != w.edge_map[i]:
                em = w.edge_map[:i] + (fe,) + w.edge_map[i + 1 :]
                yield MatchingTriple(g, replace(w, edge_map=em))
    for v in range(n):
        for label in range(n + 1):
            if label != w.osc[v]:
                osc = w.osc[:v] + (label,) + w.osc[v + 1 :]
                yield MatchingTriple(g, replace(w, osc=osc))


def mutation_sample(mutations: list, rng: random.Random, cap: int = 60) -> list:
    """The whole mutation space when small, else a seeded sample of ``cap``."""
    if len(mutations) <= cap:
        return mutations
    return rng.sample(mutations, cap)


def random_loopless_graph(rng: random.Random, n: int, max_edges: int) -> Graph:
    """Random undirected graph: no self-loops, no duplicate unordered pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    k = rng.randint(0, min(len(pairs), max_edges))
    return Graph(n, rng.sample(pairs, k))


def random_digraph(
    rng: random.Random, n: int, max_edges: int, max_cost: int
) -> tuple[Graph, tuple[int, ...]]:
    """Random digraph (self-loops and parallel edges allowed) with costs."""
    m = rng.randint(0, max_edges)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    costs = tuple(rng.randint(0, max_cost) for _ in range(m))
    return Graph(n, edges), costs


def random_multigraph(rng: random.Random, n: int, max_edges: int) -> Graph:
    """Random undirected graph; self-loops and parallel edges allowed."""
    m = rng.randint(0, max_edges) if n else 0
    return Graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
