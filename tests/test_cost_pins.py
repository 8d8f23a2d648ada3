"""Deterministic cost pins: each checker's work grows at most linearly,
and each solver's no faster than it does today.

A check must be cheaper than the search it certifies, and linear in the
input. Timings are too noisy to pin that, so these tests count the lines
of certigraph code a check or solve runs (``helpers.line_events``) on
seeded sparse inputs of size s and 4s and bound the ratio. Ratios, not
counts, are pinned: Python versions differ in how many line events a
statement makes.
"""

from __future__ import annotations

import random

import pytest

from certigraph.connectivity import ConnectivityTriple, check_connectivity
from certigraph.formats import parse_graph, serialize_graph
from certigraph.gcd import GcdTriple, check_gcd
from certigraph.graph import Graph
from certigraph.matching import MatchingTriple, check_max_matching
from certigraph.shortest_paths import SpTriple, check_shortest_paths
from certigraph.solvers import (
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)

from helpers import line_events

SIZE = 500  # vertices at the small size; the large one has 4 * SIZE
LINEAR = 4.2  # at most this many times the work for 4 times the input
NEAR_LINEAR = 4.4  # the same for BFS and Dijkstra, a log factor allowed
# The blossom search by phases on random m = 3n graphs, n = 1000 -> 4000
# summed over seeds 1-3: 284,311 -> 1,133,618 line events on CPython 3.11,
# measured 3.99x, pinned 5% above. A contraction that relabels by scanning
# all n vertices gives 12.9x.
MATCHING_GROWTH = 4.2
# The bulk graph reader and the Graph build run in C: their Python lines
# do not grow with m at all, and are pinned not to grow by more than 5%.
FLAT = 1.05


def sparse_graph(n: int, offset: int = 0) -> Graph:
    """A connected graph on vertices offset .. offset+n-1 with 3n - 3 edges:
    a random tree plus random extra edges, no self-loop, no pair twice."""
    rng = random.Random(n)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    while len(pairs) < 3 * n - 3:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    return Graph(offset + n, [(offset + u, offset + v) for u, v in sorted(pairs)])


def random_graph(n: int, seed: int) -> Graph:
    """A uniform random simple graph with n vertices and 3n edges."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Graph(n, sorted(pairs))


def two_halves(n: int) -> Graph:
    """Two disconnected copies of ``sparse_graph(n // 2)``."""
    low, high = sparse_graph(n // 2), sparse_graph(n // 2, offset=n // 2)
    return Graph(n, low.edges + high.edges)


def accepted_after(check, triple) -> int:
    """The line events of a check that runs every clause to acceptance."""
    count, verdict = line_events(check, triple)
    assert verdict.accepted, verdict
    return count


def connectivity_check(g: Graph) -> int:
    res = solve_connectivity(g)
    return accepted_after(check_connectivity, ConnectivityTriple(g, res.output, res.witness))


def sp_solve(g: Graph):
    cost = [i % 4 for i in range(g.num_edges)]  # a quarter of the edges cost 0
    return solve_shortest_paths(g, cost, 0)


def sp_check(g: Graph) -> int:
    return accepted_after(check_shortest_paths, SpTriple(g, sp_solve(g).witness))


def matching_check(g: Graph) -> int:
    return accepted_after(check_max_matching, MatchingTriple(g, solve_max_matching(g).witness))


@pytest.mark.parametrize(
    "count, build",
    [
        (connectivity_check, sparse_graph),  # spanning tree witness
        (connectivity_check, two_halves),  # cut witness
        (sp_check, sparse_graph),
        (matching_check, sparse_graph),
    ],
    ids=["connected-tree", "connected-cut", "sp", "matching"],
)
def test_graph_checker_work_is_linear(count, build):
    small, large = count(build(SIZE)), count(build(4 * SIZE))
    assert 0 < large <= LINEAR * small, (small, large, large / small)


@pytest.mark.parametrize("solve", [solve_connectivity, sp_solve], ids=["connected", "sp"])
def test_graph_search_work_is_near_linear(solve):
    small, large = (line_events(solve, sparse_graph(n))[0] for n in (SIZE, 4 * SIZE))
    assert 0 < large <= NEAR_LINEAR * small, (small, large, large / small)


def test_matching_solver_work_grows_no_faster_than_today():
    def count(n: int) -> int:
        return sum(line_events(solve_max_matching, random_graph(n, seed))[0] for seed in (1, 2, 3))

    small, large = count(1000), count(4000)
    assert 0 < large <= MATCHING_GROWTH * small, (small, large, large / small)


def test_gcd_checker_work_is_constant_in_the_digits():
    # Its arithmetic is C-level bignum work; the Python lines run do not grow.
    def count(digits: int) -> int:
        rng = random.Random(digits)
        a, b = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        res = solve_gcd(a, b)
        return accepted_after(check_gcd, GcdTriple(a, b, res.output, *res.witness))

    assert 0 < count(10**3) == count(4 * 10**3)


def test_bulk_graph_reader_runs_no_per_row_python():
    def count(n: int) -> int:
        g = sparse_graph(n)
        cost = tuple(i % 7 for i in range(g.num_edges))
        events, parsed = line_events(parse_graph, serialize_graph(g, cost))
        assert parsed == (g, cost)
        return events

    small, large = count(SIZE), count(4 * SIZE)
    assert 0 < large <= FLAT * small and small <= FLAT * large, (small, large)
