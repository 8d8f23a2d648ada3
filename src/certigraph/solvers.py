"""Witness-producing solvers.

Each solver returns its answer together with a witness that the matching
checker module can verify independently; tests never trust a solver run
that the corresponding checker has not accepted. Tie-breaking is
deterministic everywhere (lowest vertex id, then lowest edge id), so
solver output is reproducible byte for byte.

Each solver imports its problem's module (and the blossom search, for
matching) when it runs, so a process that solves one problem loads no
other problem's code.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generic, Sequence, TypeVar

from .record import Record
from .verdict import PreconditionError, shown

if TYPE_CHECKING:
    from .connectivity import ConnectivityWitness
    from .graph import Graph
    from .matching import MatchingWitness
    from .shortest_paths import ExtNat, SpWitness

Y = TypeVar("Y")
W = TypeVar("W")


class SolverResult(Record, Generic[Y, W]):
    """An answer plus the witness that certifies it."""

    output: Y
    witness: W


def _require_vertex_limit(g: Graph) -> None:
    """Raise :class:`PreconditionError` past 2**31 - 1 vertices, the C checkers' int range.

    Solvers allocate per-vertex lists, so each calls this before any of them.
    """
    if g.num_verts > 2**31 - 1:
        raise PreconditionError("vertex_limit", f"{shown(g.num_verts)} vertices exceed 2^31 - 1")


def solve_connectivity(g: Graph) -> SolverResult[bool, ConnectivityWitness]:
    """Breadth-first search from vertex 0; edges are traversable both ways.

    Connected graphs yield a spanning tree rooted at 0 whose depth numbers
    are the BFS levels; disconnected graphs yield the cut consisting of
    everything reachable from 0.
    """
    from .connectivity import CutWitness, SpanningTreeWitness
    from .graph import require_wellformed

    require_wellformed(g)
    n = g.num_verts
    if n == 0:
        raise PreconditionError("empty_graph", "need at least one vertex")
    _require_vertex_limit(g)
    incident: list[list[int]] = [[] for _ in range(n)]  # (edge id, other end) pairs, flat
    for i, (src, trg) in enumerate(g.edges):
        incident[src] += (i, trg)
        incident[trg] += (i, src)
    parent_edge: list[int | None] = [None] * n
    num = [0] * n
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        it = iter(incident[v])
        for i, u in zip(it, it):
            if not seen[u]:
                seen[u] = True
                parent_edge[u] = i
                num[u] = num[v] + 1
                queue.append(u)
                reached += 1
    if reached == n:
        witness: ConnectivityWitness = SpanningTreeWitness(0, parent_edge, num)
        return SolverResult(True, witness)
    cut = CutWitness(frozenset(v for v in range(n) if seen[v]))
    return SolverResult(False, cut)


def solve_shortest_paths(
    g: Graph, cost: Sequence[int], source: int
) -> SolverResult[tuple[ExtNat, ...], SpWitness]:
    """Dijkstra's algorithm with a binary heap; exact integer arithmetic.

    Zero-cost edges are fine: parents are only reassigned on strict
    improvement, so the parent pointers always form a tree. A vertex's
    depth is set when it is settled: its parent edge is final then, and
    that edge's source was settled before it, as costs are nonnegative.
    """
    import heapq

    from .shortest_paths import SpWitness, extnat_column, require_sp_inputs

    require_sp_inputs(g, source)
    n = g.num_verts
    if len(cost) != g.num_edges:
        raise PreconditionError("cost_shape", "need one cost per edge")
    if any(c < 0 for c in cost):
        raise PreconditionError("cost_negative", "costs must be nonnegative")
    _require_vertex_limit(g)
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (src, trg) in enumerate(g.edges):
        out_edges[src].append((i, trg))
    dist: list[int | None] = [None] * n
    parent_edge: list[int | None] = [None] * n
    depth: list[int | None] = [None] * n  # None until settled
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if depth[v] is not None:
            continue
        i = parent_edge[v]
        depth[v] = 0 if i is None else depth[g.edges[i][0]] + 1
        for i, u in out_edges[v]:
            nd = d + cost[i]
            du = dist[u]
            if du is None or nd < du:
                dist[u] = nd
                parent_edge[u] = i
                heapq.heappush(heap, (nd, u))
    witness = SpWitness(
        source=source,
        dist=extnat_column(dist),
        num=extnat_column(depth),
        parent_edge=tuple(parent_edge),
        cost=tuple(cost),
    )
    return SolverResult(witness.dist, witness)


def solve_max_matching(g: Graph) -> SolverResult[Graph, MatchingWitness]:
    """Blossom search by phases plus an odd-set cover read off the last phase.

    Each phase grows alternating trees from every free vertex at once and
    augments wherever two trees meet; the phase that augments nothing is
    the complete search, and its forest gives the cover. The returned
    matching M reuses the graph's own edge records (lowest edge id per
    matched pair), so the witness's edge map is trivially valid; the cover
    labels certify maximality.
    """
    from . import blossom
    from .graph import Graph
    from .matching import MatchingWitness, require_matching_inputs

    # The empty matching meets every condition on M, so only G's are tested.
    require_matching_inputs(g, Graph(g.num_verts, ()))
    _require_vertex_limit(g)
    edge_ids, labels = blossom.maximum_matching_with_cover(g)
    m = Graph(g.num_verts, [g.edges[i] for i in edge_ids])
    witness = MatchingWitness(m, edge_ids, labels)
    return SolverResult(m, witness)


def solve_gcd(a: int, b: int) -> SolverResult[int, tuple[int, int]]:
    """Extended Euclid: gcd plus Bezout coefficients, all exact."""
    from .gcd import require_gcd_inputs

    require_gcd_inputs(a, b)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return SolverResult(old_r, (old_s, old_t))
