import ast
import random
import sys
from pathlib import Path

import pytest

from certigraph import oracles
from certigraph.graph import Graph
from certigraph.oracles import (
    InstanceTooLargeError,
    enumerate_graphs,
    enumerate_matchings,
    full_weight,
    label_count,
    oracle_connected,
    oracle_max_matching_size,
    oracle_mu,
)
from certigraph.solvers import solve_connectivity, solve_shortest_paths

from helpers import random_digraph, random_multigraph


def test_oracle_connected_examples(demo_graph, zero_cycle_graph):
    assert oracle_connected(demo_graph)
    assert not oracle_connected(zero_cycle_graph)  # vertex 4 has only its loop
    assert oracle_connected(Graph(0, []))
    assert oracle_connected(Graph(1, []))
    assert not oracle_connected(Graph(2, []))
    assert oracle_connected(Graph(2, [(1, 0)]))  # direction is irrelevant
    assert not oracle_connected(Graph(3, [(0, 0), (1, 2)]))


def test_oracle_connected_agrees_with_solver():
    rng = random.Random(15)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 14), 18)
        assert oracle_connected(g) == solve_connectivity(g).output


def test_oracle_mu_examples(zero_cycle_graph, zero_cycle_cost, zero_cycle_witness):
    assert oracle_mu(zero_cycle_graph, zero_cycle_cost, 0) == zero_cycle_witness.dist
    mu = oracle_mu(Graph(1, []), (), 0)
    assert [x.value for x in mu] == [0]
    mu = oracle_mu(Graph(3, [(0, 1), (1, 2), (0, 2)]), (1, 1, 5), 0)
    assert [x.value for x in mu] == [0, 1, 2]


def test_oracle_mu_agrees_with_solver():
    rng = random.Random(16)
    for _ in range(200):
        g, cost = random_digraph(rng, rng.randint(1, 9), 16, 3)
        s = rng.randrange(g.num_verts)
        assert oracle_mu(g, cost, s) == solve_shortest_paths(g, cost, s).output


def test_oracle_matching_examples(twelve_graph):
    assert oracle_max_matching_size(Graph(3, [(0, 1), (1, 2), (2, 0)])) == 1
    assert oracle_max_matching_size(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 2
    assert oracle_max_matching_size(Graph(4, [])) == 0
    assert oracle_max_matching_size(twelve_graph) == 5
    # A self-loop can be "matched" against itself by the branching rule,
    # consuming one vertex; the solvers exclude loops by precondition, but
    # the oracle stays total on them.
    assert oracle_max_matching_size(Graph(1, [(0, 0)])) == 1


def test_oracle_matching_size_guard():
    def path(m: int) -> Graph:
        return Graph(m + 1, [(i, i + 1) for i in range(m)])

    assert oracles.MAX_EDGES == 20
    assert oracle_max_matching_size(path(20)) == 10
    with pytest.raises(InstanceTooLargeError, match="21 edges exceeds the enumeration bound 20"):
        oracle_max_matching_size(path(21))


def test_enumerate_graphs_counts():
    # Loopless undirected universes on n vertices have n(n-1)/2 pairs.
    assert sum(1 for _ in enumerate_graphs(3)) == 2 ** 3
    assert sum(1 for _ in enumerate_graphs(3, self_loops=True)) == 2 ** 6
    assert sum(1 for _ in enumerate_graphs(2, directed=True, self_loops=True)) == 2 ** 4
    assert sum(1 for _ in enumerate_graphs(0)) == 1
    with pytest.raises(InstanceTooLargeError):
        list(enumerate_graphs(10))


def test_enumerate_matchings_counts():
    triangle = Graph(3, [(0, 1), (1, 2), (2, 0)])
    # empty + three single edges
    assert sorted(enumerate_matchings(triangle)) == [(), (0,), (1,), (2,)]
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ms = list(enumerate_matchings(square))
    assert len(ms) == 1 + 4 + 2
    assert max(len(m) for m in ms) == 2
    with pytest.raises(InstanceTooLargeError):
        list(enumerate_matchings(Graph(30, [(i, i + 1) for i in range(25)])))


def test_weight_definitions_need_no_recursion_depth():
    n = 3000
    assert label_count([0] * n, 0, n) == n
    labels = [1] * 1000 + [2] * 1001 + [n - 1] * 999
    assert full_weight(labels, n, n - 1) == 1000 + 500 + 499


# What the oracles may take from the package: data classes and the exception
# that marks a precondition violation, never checker or solver code.
DATA_ONLY = {
    "ConnectivityTriple", "CutWitness", "ExtNat", "GcdTriple", "Graph", "INFINITY",
    "MatchingTriple", "MatchingWitness", "PreconditionError", "SpTriple", "SpWitness",
    "SpanningTreeWitness",
}


def own_methods(cls: type) -> set[str]:
    """The functions a class body defines, other than construction checks and properties."""
    tree = ast.parse(Path(sys.modules[cls.__module__].__file__).read_text())
    (body,) = [n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
    return {
        node.name
        for node in body
        if isinstance(node, ast.FunctionDef)
        and node.name != "__post_init__"
        and not any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
    }


def test_oracles_import_only_data_classes_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    from_package = {
        alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("certigraph"))
        for alias in node.names
    }
    assert from_package and from_package <= DATA_ONLY, from_package - DATA_ONLY
    plain = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    assert not any(name.startswith("certigraph") for name in plain)
    # The data classes carry no behaviour of their own: the dataclass decorator
    # writes their methods, so arithmetic such as an ExtNat order lives here.
    for name in from_package - {"PreconditionError"}:
        obj = getattr(oracles, name)
        cls = obj if isinstance(obj, type) else type(obj)
        assert own_methods(cls) == set(), (name, own_methods(cls))
