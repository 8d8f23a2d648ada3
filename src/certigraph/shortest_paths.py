"""Witness checker for single-source shortest paths with nonnegative costs.

The witness carries, per vertex, a claimed distance, a depth number, and a
parent edge. Four local conditions together force the distances to be
exactly the true shortest-path distances:

* ``start_val``: the source has distance 0;
* ``no_path``: distance and depth are infinite for the same vertices;
* ``trian``: no edge can improve a distance (so dist is a lower-bounded
  fixpoint: dist[v] <= true distance everywhere);
* ``just``: every reached non-source vertex is justified by a parent edge
  whose source lies one depth level up, at exactly the claimed distance.

The depth numbers are not redundant. With zero-cost edges, a cycle of
justifications can confirm arbitrarily small distances while every ``dist``
equality holds; the strictly decreasing depth chain is what rules such
cycles out. Dropping the depth conjunct makes the checker unsound (see the
acceptance tests for a forged witness it would accept).

All arithmetic is exact: distances are :class:`ExtNat` (unbounded
naturals plus infinity), so no comparison ever overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, require_wellformed
from .verdict import ACCEPT, PreconditionError, Verdict, first_rejection, reject, shown


@dataclass(frozen=True, slots=True)
class ExtNat:
    """A nonnegative integer or infinity (encoded as ``value = None``).

    Values compare only by equality. The checkers compare ``value``s, and
    the algebra of the extended naturals is stated in :mod:`certigraph.oracles`.
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None:
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                raise TypeError(f"finite ExtNat needs an int, got {self.value!r}")
            if self.value < 0:
                raise ValueError(f"ExtNat must be nonnegative, got {self.value}")

    @property
    def is_infinite(self) -> bool:
        return self.value is None


INFINITY = ExtNat(None)


def extnat_column(values: list[int | None]) -> list[ExtNat]:
    """``ExtNat(v)`` for each v (None is infinity), made once per distinct value."""
    made = {v: ExtNat(v) for v in {*values}}
    return list(map(made.__getitem__, values))


@dataclass(frozen=True)
class SpWitness:
    """Claimed shortest-path data for every vertex, plus the edge costs.

    ``dist`` and ``num`` have one ExtNat per vertex, ``parent_edge`` one
    optional edge id per vertex, ``cost`` one nonnegative integer per edge.
    """

    source: int
    dist: tuple[ExtNat, ...]
    num: tuple[ExtNat, ...]
    parent_edge: tuple[int | None, ...]
    cost: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dist", tuple(self.dist))
        object.__setattr__(self, "num", tuple(self.num))
        object.__setattr__(self, "parent_edge", tuple(self.parent_edge))
        object.__setattr__(self, "cost", tuple(self.cost))
        if self.cost and min(self.cost) < 0:
            raise ValueError("edge costs must be nonnegative")


@dataclass(frozen=True)
class SpTriple:
    graph: Graph
    witness: SpWitness


def check_start_val(w: SpWitness) -> Verdict:
    """Accept iff the source's claimed distance is exactly 0."""
    if 0 <= w.source < len(w.dist) and w.dist[w.source] == ExtNat(0):
        return ACCEPT
    return reject("start_val", f"dist[{w.source}] != 0")


def check_no_path(g: Graph, w: SpWitness) -> Verdict:
    """Accept iff dist[v] is infinite exactly when num[v] is infinite."""
    if all(w.dist[v].is_infinite == w.num[v].is_infinite for v in range(g.num_verts)):
        return ACCEPT
    return reject("no_path", "dist and num disagree on reachability")


def check_trian(g: Graph, w: SpWitness) -> Verdict:
    """Accept iff every edge satisfies dist[trg] <= dist[src] + cost."""
    dist = [d.value for d in w.dist]  # None is infinity
    for i, ((src, trg), c) in enumerate(zip(g.edges, w.cost)):
        d_src = dist[src]
        if d_src is not None:
            d_trg = dist[trg]
            if d_trg is None or d_trg > d_src + c:
                return reject("trian", f"edge {i} improves dist[{trg}]")
    return ACCEPT


def check_just(g: Graph, w: SpWitness) -> Verdict:
    """Accept iff every reached non-source vertex is justified by its parent edge.

    Reached means num[v] is finite. The parent edge must end at v, start
    one depth level up, and account exactly for the claimed distance.
    """
    dist = [d.value for d in w.dist]  # None is infinity
    num = [k.value for k in w.num]
    edges, cost, m = g.edges, w.cost, g.num_edges
    for v, (k, e) in enumerate(zip(num, w.parent_edge)):
        if k is None or v == w.source:
            continue
        if e is None or not 0 <= e < m:
            return reject("just", f"vertex {v}: parent edge missing or out of range")
        u, trg = edges[e]
        if trg != v:
            return reject("just", f"vertex {v}: parent edge {e} does not end at it")
        d_u = dist[u]
        if dist[v] != (None if d_u is None else d_u + cost[e]):
            return reject("just", f"vertex {v}: dist not justified by parent edge {e}")
        k_u = num[u]
        if k_u is None or k != k_u + 1:
            return reject("just", f"vertex {v}: num not one more than its parent's")
    return ACCEPT


def _shape(g: Graph, w: SpWitness) -> Verdict:
    n = g.num_verts
    if len(w.dist) == len(w.num) == len(w.parent_edge) == n and len(w.cost) == g.num_edges:
        return ACCEPT
    return reject("witness_shape", "arrays must have length n (per-vertex) and m (cost)")


CLAUSES = (
    _shape,
    lambda g, w: check_start_val(w),
    check_no_path,
    check_trian,
    check_just,
)


def require_sp_inputs(g: Graph, source: int) -> None:
    """Raise :class:`PreconditionError` unless g is wellformed and has the source."""
    require_wellformed(g)
    if not 0 <= source < g.num_verts:
        raise PreconditionError("source", f"source {shown(source)} is not a vertex")


def check_shortest_paths(t: SpTriple) -> Verdict:
    """Decide the shortest-path witness predicate for the triple.

    Rejections name the first failing clause of ``CLAUSES``. Raises
    :class:`PreconditionError` if the graph is malformed or the source is
    not a vertex.
    """
    require_sp_inputs(t.graph, t.witness.source)
    return first_rejection(CLAUSES, t.graph, t.witness)
