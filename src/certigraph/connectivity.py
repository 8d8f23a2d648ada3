"""Witness checker for graph connectivity.

A connectivity claim comes with one of two witnesses: a spanning tree
(parent edges plus depth numbers) certifying "connected", or a cut (a
proper nonempty vertex set crossed by no edge) certifying "disconnected".
Either witness is checkable in linear time without re-running any search,
and each is convincing on its own: the tree exhibits a path to the root
from every vertex, the cut exhibits a reason no such path can exist.

The depth numbers are what make the tree witness locally checkable. An
arbitrary parent assignment could contain cycles; requiring
``num[v] == num[parent_of_v] + 1`` forces the parent pointers to form a
forest rooted at ``root``, and one scan verifies it.
"""

from __future__ import annotations

from .graph import Graph, require_wellformed
from .record import Record
from .verdict import ACCEPT, Verdict, first_rejection, reject, shown


class SpanningTreeWitness(Record):
    """Certifies connectivity: per-vertex parent edge and depth.

    ``parent_edge[v]`` is None exactly at the root; ``num[v]`` is the
    depth of v in the tree. Array lengths and field ranges are part of the
    witness predicate, checked rather than assumed.
    """

    root: int
    parent_edge: tuple[int | None, ...]
    num: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_edge", tuple(self.parent_edge))
        object.__setattr__(self, "num", tuple(self.num))
        if any(k < 0 for k in self.num):
            raise ValueError("depth numbers must be nonnegative")


class CutWitness(Record):
    """Certifies disconnectedness: a vertex set no edge crosses."""

    cut_set: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cut_set", frozenset(self.cut_set))


ConnectivityWitness = SpanningTreeWitness | CutWitness


class ConnectivityTriple(Record):
    """Input graph, claimed answer, and the witness backing the claim.

    The witness variant must match the claim: a tree certifies True, a cut
    certifies False. Mismatched construction is a usage error.
    """

    graph: Graph
    connected_claim: bool
    witness: ConnectivityWitness

    def __post_init__(self) -> None:
        is_tree = isinstance(self.witness, SpanningTreeWitness)
        if is_tree != self.connected_claim:
            raise ValueError("witness variant does not match the connectivity claim")


def check_r(g: Graph, w: SpanningTreeWitness) -> Verdict:
    """Accept iff the root is a vertex with depth 0 and no parent edge.

    Expects arrays of length ``g.num_verts``.
    """
    r = w.root
    if 0 <= r < g.num_verts and w.num[r] == 0 and w.parent_edge[r] is None:
        return ACCEPT
    return reject("r", f"root {shown(r)} lacks depth 0 and no parent")


def check_parent_num(g: Graph, w: SpanningTreeWitness) -> Verdict:
    """Accept iff every non-root vertex hangs off its parent edge one level down.

    Expects arrays of length ``g.num_verts``.
    """
    for v in range(g.num_verts):
        if v == w.root:
            continue
        e = w.parent_edge[v]
        if e is None or not 0 <= e < g.num_edges:
            return reject("parent_num", f"vertex {v}: parent edge missing or out of range")
        a, b = g.edges[e]
        # The parent edge may be recorded in either orientation.
        if a == v and w.num[v] == w.num[b] + 1:
            continue
        if b == v and w.num[v] == w.num[a] + 1:
            continue
        return reject(
            "parent_num", f"vertex {v}: edge {e} does not join it one level below its parent"
        )
    return ACCEPT


def check_cut(g: Graph, w: CutWitness) -> Verdict:
    """Accept iff the cut set is a proper nonempty vertex subset no edge crosses."""
    s = w.cut_set
    if not s:
        return reject("cut", "cut set is empty")
    if not all(0 <= v < g.num_verts for v in s):
        return reject("cut", "cut set contains a non-vertex")
    if len(s) == g.num_verts:
        return reject("cut", "cut set is the whole vertex set")
    for i, (src, trg) in enumerate(g.edges):
        if (src in s) != (trg in s):
            return reject("cut", f"edge {i} crosses the cut")
    return ACCEPT


def _tree_shape(g: Graph, w: SpanningTreeWitness) -> Verdict:
    if len(w.parent_edge) == len(w.num) == g.num_verts:
        return ACCEPT
    return reject("witness_shape", "per-vertex arrays must have length n")


TREE_CLAUSES = (_tree_shape, check_r, check_parent_num)
CUT_CLAUSES = (check_cut,)


def check_connectivity(t: ConnectivityTriple) -> Verdict:
    """Decide whether the witness proves the claimed connectivity verdict.

    Rejections name the first failing clause of ``TREE_CLAUSES`` or
    ``CUT_CLAUSES``. Raises :class:`PreconditionError` if the graph is
    malformed.
    """
    require_wellformed(t.graph)
    clauses = TREE_CLAUSES if isinstance(t.witness, SpanningTreeWitness) else CUT_CLAUSES
    return first_rejection(clauses, t.graph, t.witness)
