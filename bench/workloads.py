"""Seeded inputs for the benchmark's three workloads.

Everything the program reads is a file written here from the run's seed:
graph files, the honest witnesses, and forged witnesses. The honest
witnesses come from the program's own solvers, and each answer is compared
against a reference that does not use the program: an answer fixed by how
the graph was built, or a computation in this file (union-find,
lazy-deletion Dijkstra, ``math.gcd``). Each forged witness carries the
clause that must reject it, and that clause follows from how the forgery
is built, never from running the checker.

Workloads (see ``BENCHMARK.json`` for the one-line reasons):

* ``sparse-paths``: random directed multigraphs with m = 5n, certified and
  verified for connectivity and shortest paths. Parsing, ``Graph`` building,
  BFS/Dijkstra and the two checkers do the work; blossom and the CLI none.
* ``matching-families``: edgeless graphs, stars, chained odd cycles and
  random sparse graphs (m = 3n) of a few thousand vertices, where the
  blossom solver's per-root and per-contraction O(n) work dominates. The
  mirror image of ``sparse-paths``.
* ``cli-mixed``: small and medium instances of all four problems through
  one child interpreter per command, including gcd operands of up to 10^4
  digits. Interpreter start, import and argv/file boundaries dominate.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from certigraph import formats, solvers
from certigraph.connectivity import SpanningTreeWitness
from certigraph.graph import Graph

ZERO_COST_SHARE = 0.2  # about a fifth of the costs are 0, so depth numbers matter
GADGET = 4  # length of the planted zero-cost cycle the "just" forgery uses
MAX_COST = 100


@dataclass
class Instance:
    """One question for one problem, with its files and reference answer.

    ``answer`` is what a correct certify must claim: connected or not, the
    list of distances (None for unreachable), the matching size, or the gcd.
    """

    name: str
    problem: str  # "connectivity", "sp", "matching" or "gcd"
    graph: Path | None  # None for gcd, whose single file is the witness
    honest: Path
    out: Path
    answer: object
    source: int = 0
    operands: tuple[int, int] = (0, 0)
    digits: int = 0
    forged: list[tuple[Path, str]] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int/str digit limit while the benchmark itself converts.

    The program runs with the interpreter's default limit; only the
    generator and the judge, which must read and write 10^4-digit numbers
    to test the program at that size, lift it, and only for that call.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(old)


# --- graph generators: each returns (n, edges) with edges as tuples -------


def directed_multigraph(rng: random.Random, n: int, m: int, split: bool):
    """Random directed multigraph with m edges and a planted zero-cost cycle.

    A random chain through each block keeps the block connected when its
    edges are read as undirected, so the instance mix (and with it the
    set of forgeries) does not depend on the seed. With ``split`` there
    are two blocks and no edge joins them, so the graph is disconnected
    and the second half is unreachable from source 0. The cycle's vertices
    sit at the end of the first block, are entered only through edges of
    cost >= 1 (one of them from the source), and have no edge leading off
    the cycle. Returns (n, edges, cycle) where edges are (src, trg, cost).
    """
    half = n // 2 if split else n
    cycle = list(range(half - GADGET, half))
    on_cycle = set(cycle)
    edges = [(cycle[j], cycle[(j + 1) % GADGET], 0) for j in range(GADGET)]
    edges.append((0, cycle[0], rng.randrange(1, MAX_COST)))
    blocks = [(0, half)] + ([(half, n)] if split else [])

    def cost(v: int) -> int:
        zero = v not in on_cycle and rng.random() < ZERO_COST_SHARE
        return 0 if zero else rng.randrange(1, MAX_COST)

    for lo, hi in blocks:
        chain = list(range(lo, hi))
        rng.shuffle(chain)
        for u, v in zip(chain, chain[1:]):
            if u in on_cycle:
                u, v = v, u
            if u not in on_cycle:  # two cycle vertices are joined by the cycle
                edges.append((u, v, cost(v)))
    while len(edges) < m:
        lo, hi = blocks[rng.randrange(len(blocks))]
        u = rng.randrange(lo, hi)
        if u in on_cycle:
            continue
        v = rng.randrange(lo, hi)
        edges.append((u, v, cost(v)))
    rng.shuffle(edges)
    return n, edges, cycle


def _relabel(rng: random.Random, n: int, pairs) -> list[tuple[int, int]]:
    """Randomly rename vertices, orient and order a simple undirected graph."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
        for u, v in pairs
    ]
    rng.shuffle(edges)
    return edges


def edgeless(rng: random.Random, n: int):
    return n, [], 0


def star(rng: random.Random, n: int):
    return n, _relabel(rng, n, [(0, v) for v in range(1, n)]), 1


def odd_cycle_chain(rng: random.Random, k: int):
    """k pentagons chained through k - 1 hub vertices.

    Hub i joins two vertices of pentagon i and two of pentagon i + 1. With
    the hubs as the Tutte set, G - hubs has k odd components, so a maximum
    matching has 3k - 1 edges and leaves one vertex free, and every optimal
    odd-set cover gives each pentagon a label of its own. After the random
    renaming, the solver's greedy seed leaves many vertices free, and their
    augmenting paths run through pentagons that must be contracted.
    """
    n = 6 * k - 1
    pairs = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    for i in range(k - 1):
        hub = 5 * k + i
        pairs += [(hub, 5 * i + j) for j in rng.sample(range(5), 2)]
        pairs += [(hub, 5 * (i + 1) + j) for j in rng.sample(range(5), 2)]
    return n, _relabel(rng, n, pairs), 3 * k - 1


def planted_sparse(rng: random.Random, n: int):
    """Random simple graph with m = 3n holding a planted perfect matching (n even)."""
    perm = list(range(n))
    rng.shuffle(perm)
    seen = {frozenset(perm[i : i + 2]) for i in range(0, n - 1, 2)}
    while len(seen) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add(frozenset((u, v)))
    return n, _relabel(rng, n, [tuple(sorted(p)) for p in sorted(seen, key=sorted)]), n // 2


MATCHING_FAMILIES = {
    "edgeless": edgeless,
    "star": star,
    "odd-cycles": odd_cycle_chain,
    "random": planted_sparse,
}


# --- references that do not use the program -------------------------------


def connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v, *_ in edges:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            parts -= 1
    return parts == 1


def distances(n: int, edges, source: int) -> list[int | None]:
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, c in edges:
        out[u].append((v, c))
    dist: list[int | None] = [None] * n
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, c in out[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + c, v))
    return dist


# --- files ----------------------------------------------------------------


def _write_graph(path: Path, n: int, edges) -> None:
    body = "".join(" ".join(map(str, e)) + "\n" for e in edges)
    path.write_text(f"graph {n} {len(edges)}\n{body}")


class SetupError(RuntimeError):
    """The program's own witness for a generated instance is wrong."""


def _expect(inst: Instance, got: object) -> None:
    if got != inst.answer:
        raise SetupError(f"{inst.name}: the solver's answer differs from the reference")


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def graph_instances(rng, work: Path, name: str, n: int, m: int, split: bool):
    """Connectivity and shortest-path instances on one directed multigraph."""
    n, edges, cycle = directed_multigraph(rng, n, m, split)
    graph_file = work / f"{name}.graph"
    _write_graph(graph_file, n, edges)
    g = Graph(n, [(u, v) for u, v, _ in edges])

    conn = Instance(f"{name}/connectivity", "connectivity", graph_file,
                    work / f"{name}.tree", work / f"{name}.tree.out", connected(n, edges))
    res = solvers.solve_connectivity(g)
    _expect(conn, res.output)
    text = formats.serialize_connectivity_witness(res.witness)
    conn.honest.write_text(text)
    if isinstance(res.witness, SpanningTreeWitness):
        # One depth number off by one: that vertex, or a child of it listed
        # earlier, no longer hangs one level below its parent. The root's
        # line is untouched, so the earlier clause "r" still holds.
        lines = text.splitlines()
        v = rng.choice([x for x in range(n) if x != res.witness.root])
        edge, num = lines[1 + v].split()
        lines[1 + v] = f"{edge} {int(num) + 1}"
        conn.forged.append((_write_lines(work / f"{name}.tree.bad", lines), "parent_num"))

    ref = distances(n, edges, 0)
    sp = Instance(f"{name}/sp", "sp", graph_file, work / f"{name}.sp",
                  work / f"{name}.sp.out", ref)
    res = solvers.solve_shortest_paths(g, tuple(c for _, _, c in edges), 0)
    _expect(sp, [d.value for d in res.output])
    text = formats.serialize_sp_witness(res.witness)
    sp.honest.write_text(text)
    lines = text.splitlines()

    # Distance 0 all around the planted zero-cost cycle, each cycle vertex
    # justified by the cycle edge into it. start_val, no_path and trian
    # still hold (the cycle has no edge leading off it), and so does every
    # distance equality of "just"; only the depth numbers, which cannot
    # rise all the way around a cycle, expose it. The true distances are at
    # least 1, because every edge entering the cycle costs 1 or more.
    into = {v: i for i, (u, v, _) in enumerate(edges) if u in cycle}
    circular = lines.copy()
    for v in cycle:
        _, num, _ = circular[1 + v].split()
        circular[1 + v] = f"0 {num} {into[v]}"
    sp.forged.append((_write_lines(work / f"{name}.sp.just", circular), "just"))

    # One reached vertex claims one more than its distance: the edge from
    # its parent now improves it, and no earlier clause looks at it.
    v = rng.choice([x for x in range(1, n) if ref[x] is not None])
    dist, num, parent = lines[1 + v].split()
    raised = lines.copy()
    raised[1 + v] = f"{int(dist) + 1} {num} {parent}"
    sp.forged.append((_write_lines(work / f"{name}.sp.trian", raised), "trian"))
    return [conn, sp]


def matching_instance(rng, work: Path, name: str, family: str, size: int) -> Instance:
    n, pairs, expected = MATCHING_FAMILIES[family](rng, size)
    name = f"{name}-{family}-{n}"
    graph_file = work / f"{name}.graph"
    _write_graph(graph_file, n, pairs)
    inst = Instance(f"{name}/matching", "matching", graph_file, work / f"{name}.matching",
                    work / f"{name}.matching.out", expected)
    res = solvers.solve_max_matching(Graph(n, pairs))
    _expect(inst, res.output.num_edges)
    text = formats.serialize_matching_witness(res.witness)
    inst.honest.write_text(text)
    labels = res.witness.osc
    inst.stats = {
        "blossom.free_vertices": n - 2 * res.output.num_edges,
        "blossom.cover_labels": len({x for x in labels if x >= 2}),
    }
    if family == "odd-cycles" and inst.stats["blossom.cover_labels"] < size // 2:
        raise SetupError(f"{name}: the cover shows too few contracted blossoms")

    # One more M-edge, between two vertices G does not join, mapped to G's
    # edge 0 (or past the end of an edgeless G). Every earlier M-edge maps
    # correctly, so "subset" rejects at the added one.
    adjacent = {frozenset(p) for p in pairs}
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in adjacent:
            break
    lines = text.splitlines()
    k = res.output.num_edges
    lines[0] = f"matching {k + 1}"
    lines.insert(1 + k, f"{u} {v} 0")
    inst.forged.append((_write_lines(work / f"{name}.matching.bad", lines), "subset"))
    return inst


def gcd_instance(rng, work: Path, digits: int) -> Instance:
    """Two operands of ``digits`` digits sharing a factor of about a third of that."""
    shared = rng.randrange(10 ** (digits // 3 - 1), 10 ** (digits // 3))
    rest = digits - digits // 3
    a = shared * rng.randrange(10 ** (rest - 1), 10 ** rest)
    b = shared * rng.randrange(10 ** (rest - 1), 10 ** rest)
    name = f"gcd-{digits}"
    inst = Instance(f"{name}/gcd", "gcd", None, work / f"{name}.gcd", work / f"{name}.gcd.out",
                    math.gcd(a, b), operands=(a, b), digits=digits)
    # The library computes the witness fine at any size; only its text
    # boundary has a digit limit, so the benchmark writes the line itself.
    res = solvers.solve_gcd(a, b)
    s, t = res.witness
    _expect(inst, res.output)
    if s * a + t * b != res.output:
        raise SetupError(f"{name}: the Bezout pair does not combine to the gcd")
    with unlimited_int_digits():
        inst.honest.write_text(f"gcd {a} {b} {res.output} {s} {t}\n")
        # The same gcd with s one larger: g still divides a and b, but
        # (s + 1)a + tb = g + a != g since a > 0.
        forged = work / f"{name}.gcd.bad"
        forged.write_text(f"gcd {a} {b} {res.output} {s + 1} {t}\n")
    inst.forged.append((forged, "combination"))
    return inst


# Sizes per workload: (full, tiny). Full sizes keep one pass of each
# workload to a few seconds on a 2-core machine, so a run holds several
# passes; tiny sizes are for the self-check only. The sparse graphs give
# a pass of about 2 s, so a 35 s run takes the median of 13 to 22 passes
# while its untraced operations stay well below the 1000 at which the
# tail rule would move from p90 to p99. The solve time of the odd-cycle
# chains and of the random matching graphs depends strongly on the seed
# (how many vertices the greedy seed leaves free), which would otherwise
# dominate the run-to-run spread: the chains are three of equal size,
# whose seed effects partly cancel, instead of one large one, and the
# random graphs stay smaller than the other families. Their verify
# operations also put the median operation inside a cluster of similar
# latencies instead of on the edge between two. For the same reason the
# four certify operations on 3500-vertex edgeless graphs and stars, whose
# cost the seed hardly moves, are the top tenth of the operations, so
# the p90 tail falls among them and not on a seed-dependent chain.
SPARSE_GRAPHS = {  # (n, split) per graph; m = 5n
    "full": [(600, False), (1200, True), (2400, False), (4800, False)],
    "tiny": [(40, False), (60, True)],
}
MATCHING_SIZES = {  # per family: vertex counts (pentagon counts for odd-cycles)
    "full": {"edgeless": [1000, 3500, 3500], "star": [1000, 3500, 3500],
             "odd-cycles": [350, 350, 350], "random": [1000, 1000]},
    "tiny": {"edgeless": [12], "star": [12], "odd-cycles": [4], "random": [12]},
}
CLI_SIZES = {
    "full": {"graphs": [(300, False), (800, True)],
             "matching": [("odd-cycles", 40), ("star", 300)],
             "gcd_digits": [20, 1000, 4000, 10000]},
    "tiny": {"graphs": [(30, False), (40, True)],
             "matching": [("odd-cycles", 3)],
             "gcd_digits": [20, 5000]},
}


def build(workload: str, seed: int, work: Path, size: str) -> list[Instance]:
    """Write every file of one workload into ``work`` and return its instances."""
    rng = random.Random(f"{workload}/{seed}")
    found: list[Instance] = []
    if workload == "sparse-paths":
        for i, (n, split) in enumerate(SPARSE_GRAPHS[size]):
            found += graph_instances(rng, work, f"g{i}-{n}", n, 5 * n, split)
    elif workload == "matching-families":
        for family, sizes in MATCHING_SIZES[size].items():
            found += [matching_instance(rng, work, f"m{i}", family, s) for i, s in enumerate(sizes)]
    elif workload == "cli-mixed":
        sizes = CLI_SIZES[size]
        for i, (n, split) in enumerate(sizes["graphs"]):
            found += graph_instances(rng, work, f"g{i}-{n}", n, 5 * n, split)
        found += [matching_instance(rng, work, f"m{i}", f, s)
                  for i, (f, s) in enumerate(sizes["matching"])]
        found += [gcd_instance(rng, work, d) for d in sizes["gcd_digits"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return found
