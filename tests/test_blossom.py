"""Golden witnesses and large instances for the blossom solver.

The solver's witness is reproducible byte for byte: the same graph always
yields the same matching edge ids and the same cover labels. The digests
below pin the serialized witness of seeded instances from four families,
and one digest pins about 4000 small random graphs at once, so any change
to the search order of the solver shows up here. The large instances
check that the witness is accepted and that the matching size is the one
fixed by how the graph is built. The last test feeds the certificate's
forest search a matching that is not maximum, which it must refuse.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from certigraph import blossom
from certigraph.formats import serialize_matching_witness
from certigraph.graph import Graph
from certigraph.matching import MatchingTriple, check_max_matching
from certigraph.solvers import solve_max_matching

from helpers import random_loopless_graph


def _relabel(rng: random.Random, n: int, pairs) -> Graph:
    """Rename vertices at random, orient each edge at random, shuffle the edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
        for u, v in pairs
    ]
    rng.shuffle(edges)
    return Graph(n, edges)


def edgeless(n: int) -> tuple[Graph, int]:
    return Graph(n, []), 0


def star(seed: int, n: int) -> tuple[Graph, int]:
    rng = random.Random(seed)
    return _relabel(rng, n, [(0, v) for v in range(1, n)]), 1


def odd_cycle_chain(seed: int, k: int) -> tuple[Graph, int]:
    """k pentagons, consecutive ones joined through a hub vertex.

    Each hub has two edges into each of its two pentagons. Removing the
    k - 1 hubs leaves k odd components, so by Tutte-Berge a maximum
    matching leaves at least one of the 6k - 1 vertices free; matching
    each hub into the pentagon before it reaches that bound: 3k - 1 edges.
    """
    rng = random.Random(seed)
    n = 6 * k - 1
    pairs = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    for i in range(k - 1):
        hub = 5 * k + i
        pairs += [(hub, 5 * i + j) for j in rng.sample(range(5), 2)]
        pairs += [(hub, 5 * (i + 1) + j) for j in rng.sample(range(5), 2)]
    return _relabel(rng, n, pairs), 3 * k - 1


def random_sparse(seed: int, n: int, m: int) -> Graph:
    """Uniform random simple graph with m edges."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return _relabel(rng, n, sorted(pairs))


GOLDEN = {
    "edgeless-300": (
        lambda: edgeless(300)[0],
        "044df4c4fd1f9cf1ba2af3a803f50365699e91d1cc8535f9ee90b92221ca35cf",
    ),
    "star-300": (
        lambda: star(7, 300)[0],
        "123091b8e071c1e0e9b48380c9f7b6ac718ccf63cf9eb3083524c2af93d8a0d6",
    ),
    "odd-cycles-50": (
        lambda: odd_cycle_chain(1, 50)[0],
        "7ed644a5f23295621c103236bace12f2d0c7f2c8774b7bacaebb9702c2f109a3",
    ),
    "random-300-450": (
        lambda: random_sparse(13, 300, 450),
        "53a8c30ad12a5910a26e688b4809a089ae8badd28eac703c332f1bc39e05c66b",
    ),
    "random-400-1200": (
        lambda: random_sparse(17, 400, 1200),
        "431c6cd8a55acd8002e5f69b2622ca33db0b070ba612bde84062877aad040c20",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_witness_bytes_are_golden(name):
    build, digest = GOLDEN[name]
    g = build()
    w = solve_max_matching(g).witness
    assert check_max_matching(MatchingTriple(g, w)).accepted
    text = serialize_matching_witness(w)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "build",
    [lambda: edgeless(8000), lambda: star(23, 8000), lambda: odd_cycle_chain(29, 1400)],
    ids=["edgeless-8000", "star-8000", "odd-cycles-8399"],
)
def test_large_instances_accept_with_constructed_size(build):
    g, size = build()
    res = solve_max_matching(g)
    assert res.output.num_edges == size
    assert check_max_matching(MatchingTriple(g, res.witness)).accepted


def _many_graphs():
    """About 4000 small random graphs of every density, then two large sparse ones."""
    rng = random.Random(4040)
    for _ in range(4000):
        n = rng.randrange(40)
        yield random_loopless_graph(rng, n, rng.randrange(3 * n + 1))
    yield random_sparse(2000, 2000, 6000)
    yield random_sparse(5000, 5000, 15000)


def test_witness_bytes_on_many_graphs_match_the_golden_digest():
    digest = hashlib.sha256()
    for g in _many_graphs():
        digest.update(serialize_matching_witness(solve_max_matching(g).witness).encode())
    assert digest.hexdigest() == (
        "142ad213e4437b899835424603f3423a9bc54da94ce8e428d88a3d1b743cdf28"
    )


@pytest.mark.parametrize(
    "adj, match",
    [([[1], [0]], [-1, -1]), ([[1], [0, 2], [1, 3], [2]], [-1, 2, 1, -1])],
    ids=["unmatched-edge", "path-of-three-edges"],
)
def test_certificate_search_refuses_a_matching_that_is_not_maximum(adj, match):
    # Grown from every free vertex, the forest of a non-maximum matching
    # meets an augmenting path as an even-even edge between two trees.
    n = len(adj)
    forest = ([blossom._UNREACHED] * n, [-1] * n, list(range(n)), [-1] * n)
    free = [v for v in range(n) if match[v] == -1]
    with pytest.raises(RuntimeError, match="augmenting path found after maximality"):
        blossom._grow(adj, match, forest, {}, free)


def test_a_matched_pair_takes_its_lowest_edge_id_in_either_orientation():
    # Both orientations of a pair are distinct edges of a simple graph; the
    # witness names the first of them, whichever way round it is written.
    g = Graph(4, [(1, 0), (0, 1), (3, 2), (2, 3)])
    assert solve_max_matching(g).witness.edge_map == (0, 2)
