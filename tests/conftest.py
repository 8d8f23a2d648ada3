"""Shared fixtures: the three golden instances and their witnesses.

The demo graphs live both here (as constructors) and under tests/data (as
files); test_formats checks the two spellings agree.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from certigraph.connectivity import SpanningTreeWitness
from certigraph.graph import Graph
from certigraph.matching import MatchingWitness
from certigraph.shortest_paths import INFINITY, ExtNat, SpWitness

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"

_CRITERION_RESULTS: dict[int, tuple[str, bool]] = {}


def pytest_runtest_logreport(report) -> None:
    """Collect outcomes of the acceptance-criterion tests for the summary."""
    m = re.match(r"test_criterion_(\d+)_(\w+)", report.nodeid.split("::")[-1])
    if not m:
        return
    n, name = int(m.group(1)), m.group(2).replace("_", " ")
    if report.failed:
        _CRITERION_RESULTS[n] = (name, False)
    elif report.when == "call" and report.passed and n not in _CRITERION_RESULTS:
        _CRITERION_RESULTS[n] = (name, True)


def pytest_terminal_summary(terminalreporter) -> None:
    """One PASS/FAIL line per acceptance criterion, after the test run."""
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERION_RESULTS):
        name, passed = _CRITERION_RESULTS[n]
        terminalreporter.write_line(
            f"criterion {n} ({name}): {'PASS' if passed else 'FAIL'}"
        )


def fin(*values: int) -> list[ExtNat]:
    return [ExtNat(v) for v in values]


@pytest.fixture
def demo_graph() -> Graph:
    """5 vertices, 10 undirected edges, one parallel pair and one self-loop."""
    return Graph(
        5,
        [(0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (2, 3), (2, 4), (3, 4), (0, 1), (1, 1)],
    )


@pytest.fixture
def demo_tree() -> SpanningTreeWitness:
    return SpanningTreeWitness(0, [None, 0, 1, 2, 6], [0, 1, 1, 1, 2])


@pytest.fixture
def zero_cycle_graph() -> Graph:
    """Digraph with a zero-cost two-cycle (1 <-> 3) and an unreachable loop."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 1), (4, 4)])


@pytest.fixture
def zero_cycle_cost() -> tuple[int, ...]:
    return (1, 1, 1, 0, 0, 2)


@pytest.fixture
def zero_cycle_witness(zero_cycle_cost) -> SpWitness:
    return SpWitness(
        source=0,
        dist=fin(0, 1, 1, 1) + [INFINITY],
        num=fin(0, 1, 1, 2) + [INFINITY],
        parent_edge=(None, 0, 1, 3, None),
        cost=zero_cycle_cost,
    )


@pytest.fixture
def twelve_graph() -> Graph:
    """12 vertices, 15 edges; maximum matching size 5."""
    return Graph(
        12,
        [
            (0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
            (4, 5), (2, 7), (3, 8), (4, 9), (6, 7),
            (7, 8), (8, 9), (6, 10), (7, 10), (8, 11),
        ],
    )


@pytest.fixture
def twelve_witness(twelve_graph) -> MatchingWitness:
    f = (0, 3, 8, 9, 14)
    m = Graph(12, [twelve_graph.edges[i] for i in f])
    return MatchingWitness(m, f, (1, 0, 1, 0, 1, 0, 2, 2, 1, 0, 2, 0))
