"""Brute-force ground truth, deliberately dissimilar from the solvers.

Everything here exists to catch bugs in the fast paths, so each oracle
uses a different algorithm than the solver it cross-checks: transitive
closure instead of breadth-first search, Bellman-Ford relaxation instead
of Dijkstra's heap, exhaustive enumeration instead of blossom search. The
extended naturals' absorbing addition and total order are stated here too,
as the specification's arithmetic; no checker uses them. Each ``eval_*``
evaluates one witness predicate from its quantified definition, as a single
boolean expression, to test its checker's early-exit loops: it raises
:class:`PreconditionError` on the same inputs (under its own clause names)
and applies the same shape rules, but calls no checker code.

Exhaustive routines raise :class:`InstanceTooLargeError` beyond the
module's size bounds ``MAX_PAIRS`` and ``MAX_EDGES``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .connectivity import ConnectivityTriple, CutWitness, SpanningTreeWitness
from .gcd import GcdTriple
from .graph import Graph
from .matching import MatchingTriple
from .shortest_paths import INFINITY, ExtNat, SpTriple
from .verdict import PreconditionError


class InstanceTooLargeError(ValueError):
    """The instance exceeds the configured exhaustive-search bound."""


MAX_PAIRS = 16  # enumerate_graphs yields 2**p graphs over p candidate pairs
MAX_EDGES = 20  # enumerate_matchings yields at most 2**m matchings of m edges


def oracle_connected(g: Graph) -> bool:
    """Connectivity by transitive closure of the symmetrized edge relation.

    Reachability rows are bitmasks; the closure is computed by repeatedly
    merging row k into every row that can reach k. The empty graph is
    vacuously connected (every vertex pair is mutually reachable).
    """
    n = g.num_verts
    reach = [1 << i for i in range(n)]
    for u, v in g.edges:
        reach[u] |= 1 << v
        reach[v] |= 1 << u
    for k in range(n):
        bit = 1 << k
        row = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    full = (1 << n) - 1
    return all(row == full for row in reach)


def ext_add(a: ExtNat, b: ExtNat | int) -> ExtNat:
    """a + b in the extended naturals: infinity absorbs every summand."""
    k = b.value if isinstance(b, ExtNat) else b
    if k is not None and k < 0:
        raise ValueError(f"cannot add negative {k} to an ExtNat")
    return INFINITY if a.value is None or k is None else ExtNat(a.value + k)


def ext_le(a: ExtNat, b: ExtNat) -> bool:
    """a <= b in the extended naturals, infinity on top; a < b is ``not ext_le(b, a)``."""
    return b.value is None or (a.value is not None and a.value <= b.value)


def oracle_mu(g: Graph, cost: Sequence[int], source: int) -> tuple[ExtNat, ...]:
    """Exact shortest-path distances by Bellman-Ford relaxation over ExtNat.

    With nonnegative costs, n - 1 full relaxation rounds reach the fixpoint;
    rounds stop early once nothing changes. Unreachable vertices stay at
    infinity.
    """
    n = g.num_verts
    dist = [INFINITY] * n
    dist[source] = ExtNat(0)
    for _ in range(max(n - 1, 1)):
        changed = False
        for i, (u, v) in enumerate(g.edges):
            candidate = ext_add(dist[u], cost[i])
            if not ext_le(dist[v], candidate):
                dist[v] = candidate
                changed = True
        if not changed:
            break
    return tuple(dist)


def oracle_max_matching_size(g: Graph) -> int:
    """Maximum matching cardinality: the size of the largest matching of ``g``.

    Takes the maximum over every matching :func:`enumerate_matchings`
    yields, so it inherits that function's size guard.
    """
    return max(map(len, enumerate_matchings(g)))


def enumerate_graphs(
    num_verts: int,
    *,
    directed: bool = False,
    self_loops: bool = False,
) -> Iterator[Graph]:
    """Every graph on ``num_verts`` vertices over the chosen pair universe.

    Undirected universes keep one canonical record per pair (src <= trg).
    Yields all 2**p edge subsets, so a universe of more than ``MAX_PAIRS`` pairs is refused.
    """
    pairs = [
        (u, v)
        for u in range(num_verts)
        for v in range(num_verts)
        if (directed or u <= v) and (self_loops or u != v)
    ]
    if len(pairs) > MAX_PAIRS:
        raise InstanceTooLargeError(
            f"{len(pairs)} candidate pairs exceeds the enumeration bound {MAX_PAIRS}"
        )
    for bits in range(1 << len(pairs)):
        yield Graph(num_verts, [p for i, p in enumerate(pairs) if bits >> i & 1])


def enumerate_matchings(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every matching of ``g`` as a tuple of edge ids (including the empty one)."""
    if g.num_edges > MAX_EDGES:
        raise InstanceTooLargeError(
            f"{g.num_edges} edges exceeds the enumeration bound {MAX_EDGES}"
        )
    edges = g.edges

    def rec(i: int, used: frozenset[int], cur: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(edges):
            yield tuple(cur)
            return
        yield from rec(i + 1, used, cur)
        u, v = edges[i]
        if u not in used and v not in used:
            cur.append(i)
            yield from rec(i + 1, used | {u, v}, cur)
            cur.pop()

    yield from rec(0, frozenset(), [])


def label_count(labels: Sequence[int], c: int, i: int) -> int:
    """How many of the first ``i`` labels equal ``c``.

    Unrolls the recursive definition count(0) = 0 and
    count(j) = count(j - 1) + [labels[j - 1] == c], from j = 1 up to i.
    """
    count = 0
    for j in range(1, i + 1):
        count += 1 if labels[j - 1] == c else 0
    return count


def rec_weight(labels: Sequence[int], n: int, i: int) -> int:
    """Sum of floor(n_c / 2) for labels 2 .. i over the first n labels.

    Unrolls weight(i) = 0 for i < 2 and
    weight(j) = weight(j - 1) + floor(count(j, n) / 2), from j = 2 up to i.
    """
    weight = 0
    for j in range(2, i + 1):
        weight += label_count(labels, j, n) // 2
    return weight


def full_weight(labels: Sequence[int], n: int, i: int) -> int:
    """n_1 + sum of floor(n_c / 2) for c = 2 .. i, by the recursive definitions."""
    return label_count(labels, 1, n) + rec_weight(labels, n, i)


def eval_connected(t: ConnectivityTriple) -> bool:
    g, w = t.graph, t.witness
    n, m = g.num_verts, g.num_edges
    if not all(0 <= u < n and 0 <= v < n for u, v in g.edges):
        raise PreconditionError("wellformed", "edge endpoint out of range")
    if isinstance(w, SpanningTreeWitness):
        if len(w.parent_edge) != n or len(w.num) != n:
            return False
        pe, num = w.parent_edge, w.num
        return (
            0 <= w.root < n
            and num[w.root] == 0
            and pe[w.root] is None
            and all(
                v == w.root
                or (
                    pe[v] is not None
                    and 0 <= pe[v] < m
                    and (
                        (g.edges[pe[v]][1] == v and num[v] == num[g.edges[pe[v]][0]] + 1)
                        or (g.edges[pe[v]][0] == v and num[v] == num[g.edges[pe[v]][1]] + 1)
                    )
                )
                for v in range(n)
            )
        )
    assert isinstance(w, CutWitness)
    s = w.cut_set
    return (
        len(s) > 0
        and all(0 <= v < n for v in s)
        and len(s) < n
        and all((u in s) == (v in s) for u, v in g.edges)
    )


def eval_sp(t: SpTriple) -> bool:
    g, w = t.graph, t.witness
    n, m = g.num_verts, g.num_edges
    if not (all(0 <= u < n and 0 <= v < n for u, v in g.edges) and 0 <= w.source < n):
        raise PreconditionError("sp_inputs", "edge endpoint or source out of range")
    if len(w.dist) != n or len(w.num) != n or len(w.parent_edge) != n or len(w.cost) != m:
        return False
    dist, num, pe, cost = w.dist, w.num, w.parent_edge, w.cost
    return (
        dist[w.source] == ExtNat(0)
        and all(dist[v].is_infinite == num[v].is_infinite for v in range(n))
        and all(ext_le(dist[v], ext_add(dist[u], cost[i])) for i, (u, v) in enumerate(g.edges))
        and all(
            v == w.source
            or num[v].is_infinite
            or (
                pe[v] is not None
                and 0 <= pe[v] < m
                and g.edges[pe[v]][1] == v
                and dist[v] == ext_add(dist[g.edges[pe[v]][0]], cost[pe[v]])
                and num[v] == ext_add(num[g.edges[pe[v]][0]], 1)
            )
            for v in range(n)
        )
    )


def eval_matching(t: MatchingTriple) -> bool:
    g, w = t.graph, t.witness
    m, f, osc = w.matching, w.edge_map, w.osc
    n = g.num_verts
    if not (
        m.num_verts == n
        and all(0 <= u < n and 0 <= v < n and u != v for u, v in g.edges + m.edges)
        and len(set(g.edges)) == g.num_edges
    ):
        raise PreconditionError("matching_inputs", "loop-free G, M on n vertices; no G repeats")
    if len(f) != m.num_edges or len(osc) != n:
        return False
    edges = m.edges
    return (
        all(
            0 <= f[i] < g.num_edges
            and {*e} == {*g.edges[f[i]]}
            for i, e in enumerate(edges)
        )
        and all(
            not ({*edges[i]} & {*edges[j]})
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
        )
        and all(0 <= osc[v] < n for v in range(n))
        and all(
            osc[u] == 1 or osc[v] == 1 or (osc[u] == osc[v] >= 2)
            for u, v in g.edges
        )
        and m.num_edges == full_weight(osc, n, max(osc, default=0))
    )


def eval_gcd(t: GcdTriple) -> bool:
    if t.a < 0 or t.b < 0:
        raise PreconditionError("nonneg_inputs", "a and b must be nonnegative")
    if t.a + t.b == 0:
        raise PreconditionError("not_both_zero", "gcd(0, 0) is undefined")
    return (
        t.g >= 0
        and (t.a == 0 if t.g == 0 else t.a % t.g == 0)
        and (t.b == 0 if t.g == 0 else t.b % t.g == 0)
        and t.g == t.s * t.a + t.t * t.b
    )
