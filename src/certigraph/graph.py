"""Graphs as edge lists, and the endpoint-range predicate every graph check runs.

A graph is a vertex count n plus a tuple of edges, each a plain
``(src, trg)`` tuple; building a graph from an edge that is not a pair
raises TypeError. Vertices are ``0 .. n-1`` and edges are referred to by
their index in the tuple. Undirected graphs use one pair per edge and
readers interpret it symmetrically; directed graphs read ``src -> trg``
as written. Nothing in the representation forbids self-loops, duplicate
edges, or out-of-range endpoints: those are predicates over a graph,
checked where they matter, never silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .verdict import PreconditionError


@dataclass(frozen=True)
class Graph:
    """An edge-list graph; ``edges`` may be any iterable of pairs, kept as (src, trg) tuples."""

    num_verts: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_verts < 0:
            raise ValueError(f"num_verts must be nonnegative, got {self.num_verts}")
        edges = tuple(map(tuple, self.edges))
        if {*map(len, edges)} - {2}:
            raise TypeError("every edge must be a (src, trg) pair")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def wellformed(g: Graph) -> bool:
    """True iff every edge endpoint is a vertex of ``g``."""
    n = g.num_verts
    return all(0 <= src < n and 0 <= trg < n for src, trg in g.edges)


def require_wellformed(g: Graph) -> None:
    """Raise :class:`PreconditionError` unless ``g`` is wellformed."""
    if not wellformed(g):
        raise PreconditionError("wellformed", "edge endpoint out of range")
