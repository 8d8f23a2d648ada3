"""Solvers against networkx at sizes the brute-force oracles cannot reach.

networkx is a test-time extra, not a dependency: without it this module is
skipped, and pytest reports the skip. Every solver witness must also be
accepted by its checker, so each case covers solver, checker and oracle.
"""

from __future__ import annotations

import random

import pytest

from certigraph.connectivity import check_connectivity
from certigraph.graph import Graph
from certigraph.matching import check_max_matching
from certigraph.shortest_paths import check_shortest_paths

from helpers import solver_triple

nx = pytest.importorskip("networkx")

SIZES = [(n, m) for n in (60, 400, 2000) for m in (n // 2, n, 3 * n)]


def random_pairs(rng: random.Random, n: int, m: int, loops: bool) -> list[tuple[int, int]]:
    """``m`` random ordered pairs; with ``loops`` False, no self-loops and no repeats."""
    if loops:
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    pairs: dict[tuple[int, int], None] = {}
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs[u, v] = None
    return list(pairs)


def star(n: int) -> list[tuple[int, int]]:
    return [(0, v) for v in range(1, n)]


def odd_cycle_chain(rng: random.Random, k: int) -> tuple[int, list[tuple[int, int]]]:
    """``k`` pentagons, each joined to the next through a hub vertex, renamed at random."""
    n = 6 * k - 1
    edges = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    for i in range(k - 1):
        hub = 5 * k + i
        edges += [(5 * i, hub), (hub, 5 * (i + 1) + 2)]
    name = list(range(n))
    rng.shuffle(name)
    return n, [(name[u], name[v]) for u, v in edges]


def simple_cases() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """Loopless graphs without repeated ordered pairs, as matching requires."""
    rng = random.Random(20131)
    cases = [(f"random-{n}-{m}", n, random_pairs(rng, n, m, False)) for n, m in SIZES]
    cases.append(("star-2000", 2000, star(2000)))
    cases.append(("odd-cycle-chain-167", *odd_cycle_chain(rng, 167)))
    return cases


def multigraph_cases() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """Random graphs with self-loops and parallel edges, plus the simple ones."""
    rng = random.Random(20132)
    cases = [(f"multi-{n}-{m}", n, random_pairs(rng, n, m, True)) for n, m in SIZES]
    return cases + simple_cases()


SIMPLE, MULTI = simple_cases(), multigraph_cases()
# networkx takes about a second to match 2000 random vertices with m >= n, so
# the random matching cases with m >= n stop at n = 400, and the odd-cycle
# chain at 1001 vertices.
MATCHING = [c for c in SIMPLE if c[0] not in ("random-2000-2000", "random-2000-6000")]


def case_ids(cases) -> list[str]:
    return [name for name, _, _ in cases]


@pytest.mark.parametrize("name, n, edges", MATCHING, ids=case_ids(MATCHING))
def test_matching_size_equals_networkx(name, n, edges):
    triple = solver_triple("matching", Graph(n, edges))
    assert check_max_matching(triple).accepted
    other = nx.Graph()
    other.add_nodes_from(range(n))
    other.add_edges_from(edges)
    expected = len(nx.max_weight_matching(other, maxcardinality=True))
    assert triple.witness.matching.num_edges == expected


@pytest.mark.parametrize("name, n, edges", MULTI, ids=case_ids(MULTI))
def test_shortest_path_distances_equal_networkx(name, n, edges):
    rng = random.Random(name)
    cost = tuple(0 if rng.randrange(5) == 0 else rng.randrange(1, 100) for _ in edges)
    triple = solver_triple("sp", Graph(n, edges), cost, source=0)
    assert check_shortest_paths(triple).accepted
    other = nx.MultiDiGraph()
    other.add_nodes_from(range(n))
    other.add_weighted_edges_from((u, v, c) for (u, v), c in zip(edges, cost))
    expected = nx.single_source_dijkstra_path_length(other, 0)
    dist = triple.witness.dist
    assert {v: d.value for v, d in enumerate(dist) if not d.is_infinite} == expected


@pytest.mark.parametrize("name, n, edges", MULTI, ids=case_ids(MULTI))
def test_connectivity_equals_networkx(name, n, edges):
    triple = solver_triple("connected", Graph(n, edges))
    assert check_connectivity(triple).accepted
    other = nx.Graph()
    other.add_nodes_from(range(n))
    other.add_edges_from(edges)
    assert triple.connected_claim == nx.is_connected(other)
