"""Witness checker for maximum-cardinality matching.

The witness for "M is a maximum matching in G" is an odd-set cover: a
nonnegative label per vertex such that every edge either has an endpoint
labeled 1 or has both endpoints sharing a label >= 2. Writing n_i for the
number of vertices labeled i, any matching N satisfies

    |N| <= n_1 + sum over i >= 2 of floor(n_i / 2)

because each label-1 vertex saturates at most one N-edge and the vertices
sharing label i can pairwise host at most floor(n_i / 2) N-edges. A cover
whose bound equals |M| therefore proves M maximum.

The matching is itself a graph over the same vertex set, plus a map ``f``
sending each M-edge to a G-edge with the same endpoints. Checking that map
is not optional: a checker that skips it will happily certify a "matching"
containing edges absent from G, whose cardinality can exceed the true
maximum (a bug of exactly this shape shipped in a widely used library's
checker; the regression test pins it).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .graph import Graph, wellformed
from .record import Record
from .verdict import ACCEPT, PreconditionError, Verdict, first_rejection, reject


class MatchingWitness(Record):
    """The claimed matching M, the M-edge-to-G-edge map, and the cover labels."""

    matching: Graph
    edge_map: tuple[int, ...]
    osc: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_map", tuple(self.edge_map))
        object.__setattr__(self, "osc", tuple(self.osc))
        if any(l < 0 for l in self.osc):
            raise ValueError("cover labels must be nonnegative")


class MatchingTriple(Record):
    graph: Graph
    witness: MatchingWitness


def check_subset(g: Graph, m: Graph, f: Sequence[int]) -> Verdict:
    """Accept iff ``f`` maps every M-edge to a G-edge with the same endpoints.

    Orientation may differ: an M-edge (u, v) may map to a G-edge (v, u).
    """
    if len(f) != m.num_edges:
        return reject("subset", "edge map length differs from M")
    for i, e in enumerate(m.edges):
        fe = f[i]
        if not 0 <= fe < g.num_edges:
            return reject("subset", f"M-edge {i} maps outside G")
        if {*e} != {*g.edges[fe]}:
            return reject("subset", f"M-edge {i} and G-edge {fe} have different endpoints")
    return ACCEPT


def check_matching(m: Graph) -> Verdict:
    """Accept iff no vertex is an endpoint of two edges of ``m``."""
    degree = [0] * m.num_verts
    for i, (src, trg) in enumerate(m.edges):
        if degree[src] or degree[trg]:
            return reject("matching", f"edge {i} shares an endpoint with an earlier edge")
        degree[src] = 1
        degree[trg] = 1
    return ACCEPT


def check_osc(g: Graph, osc: Sequence[int]) -> Verdict:
    """Accept iff the labels are in range and cover every edge of ``g``.

    In range means ``0 <= osc[v] < g.num_verts``. An edge is covered when
    an endpoint is labeled 1 or both endpoints share a label >= 2.
    """
    n = g.num_verts
    for v in range(n):
        if not 0 <= osc[v] < n:
            return reject("osc", f"label of vertex {v} out of range")
    for i, (src, trg) in enumerate(g.edges):
        a, b = osc[src], osc[trg]
        if a == 1 or b == 1:
            continue
        if a == b and a >= 2:
            continue
        return reject("osc", f"edge {i} is not covered")
    return ACCEPT


def check_cardinality(m: Graph, osc: Sequence[int]) -> Verdict:
    """Accept iff the cover's bound ``weight(osc)`` equals |M|."""
    bound = weight(osc)
    if m.num_edges == bound:
        return ACCEPT
    return reject(
        "cardinality", f"|M| = {m.num_edges} but the cover bounds matchings by {bound}"
    )


def weight(osc: Sequence[int]) -> int:
    """The cover's matching bound: n_1 + sum of floor(n_i / 2) for i >= 2.

    Computed in unbounded integers over the labels that actually occur;
    absent labels contribute 0, so summing to the maximum occurring label
    equals summing over every label value. The result never exceeds
    ``len(osc)``, the vertex count.
    """
    counts = Counter(osc)
    return counts[1] + sum(c // 2 for label, c in counts.items() if label >= 2)


def _shape(g: Graph, w: MatchingWitness) -> Verdict:
    if len(w.edge_map) == w.matching.num_edges and len(w.osc) == g.num_verts:
        return ACCEPT
    return reject("witness_shape", "edge map must match M, labels must match G")


CLAUSES = (
    _shape,
    lambda g, w: check_subset(g, w.matching, w.edge_map),
    lambda g, w: check_matching(w.matching),
    lambda g, w: check_osc(g, w.osc),
    lambda g, w: check_cardinality(w.matching, w.osc),
)


def check_max_matching(t: MatchingTriple) -> Verdict:
    """Decide whether the cover proves the claimed matching maximum.

    Rejections name the first failing clause of ``CLAUSES``. Raises
    :class:`PreconditionError` unless both graphs are wellformed over the
    same vertex set, neither has self-loops, and the input graph has no
    duplicate (ordered) edges.
    """
    require_matching_inputs(t.graph, t.witness.matching)
    return first_rejection(CLAUSES, t.graph, t.witness)


def require_matching_inputs(g: Graph, m: Graph) -> None:
    """Raise :class:`PreconditionError` unless (G, M) satisfy the precondition."""
    if not wellformed(g):
        raise PreconditionError("wellformed", "G has an endpoint out of range")
    if not wellformed(m):
        raise PreconditionError("wellformed_matching", "M has an endpoint out of range")
    if not has_no_self_loops(g):
        raise PreconditionError("self_loops", "G has a self-loop")
    if not has_no_self_loops(m):
        raise PreconditionError("self_loops_matching", "M has a self-loop")
    if not has_no_duplicate_edges(g):
        raise PreconditionError("duplicate_edges", "G has a duplicate edge")
    if m.num_verts != g.num_verts:
        raise PreconditionError("vertex_count", "M and G must share the vertex set")


def has_no_self_loops(g: Graph) -> bool:
    return all(src != trg for src, trg in g.edges)


def has_no_duplicate_edges(g: Graph) -> bool:
    """True iff no ordered (src, trg) pair occurs twice.

    (0, 1) and (1, 0) do not count as duplicates of each other.
    """
    return len(set(g.edges)) == g.num_edges
