"""End-to-end acceptance gate.

Nine criteria, one test each; the conftest summary prints a PASS/FAIL line
per criterion after the run. Everything random is seeded, every exhaustive
sweep asserts the size of the universe it covered, and the expensive
sweeps carry explicit wall-clock budgets.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import pytest

from certigraph import oracles
from certigraph.connectivity import ConnectivityTriple, check_connectivity
from certigraph.formats import (
    parse_connectivity_witness,
    parse_graph,
    parse_matching_witness,
    parse_sp_witness,
)
from certigraph.gcd import GcdTriple, check_gcd
from certigraph.graph import Graph
from certigraph.matching import (
    MatchingTriple,
    MatchingWitness,
    check_matching,
    check_max_matching,
    check_osc,
    weight,
)
from certigraph.oracles import (
    enumerate_graphs,
    enumerate_matchings,
    ext_add,
    ext_le,
    oracle_connected,
    oracle_max_matching_size,
    oracle_mu,
)
from certigraph.shortest_paths import (
    INFINITY,
    ExtNat,
    SpTriple,
    SpWitness,
    check_no_path,
    check_shortest_paths,
    check_start_val,
    check_trian,
)
from certigraph.solvers import (
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)

from conftest import DATA
from helpers import (
    connectivity_mutations,
    matching_mutations,
    mutation_sample,
    random_digraph,
    random_loopless_graph,
    random_multigraph,
    solver_triple,
    sp_mutations,
    verdicts_agree,
)


def test_criterion_1_golden_instances():
    """The three transcribed graph/witness instances are all accepted, fast."""
    started = time.perf_counter()

    g, _ = parse_graph((DATA / "connected_5v.graph").read_text())
    tree = parse_connectivity_witness((DATA / "connected_5v.tree").read_text(), g)
    assert check_connectivity(ConnectivityTriple(g, True, tree)).accepted

    g, cost = parse_graph((DATA / "sp_zero_cycle.graph").read_text())
    sp = parse_sp_witness((DATA / "sp_zero_cycle.sp").read_text(), g, cost)
    assert [d.value for d in sp.dist] == [0, 1, 1, 1, None]
    assert check_shortest_paths(SpTriple(g, sp)).accepted

    g, _ = parse_graph((DATA / "matching_12v.graph").read_text())
    mw = parse_matching_witness((DATA / "matching_12v.matching").read_text(), g)
    assert mw.matching.num_edges == 5
    assert sum(1 for l in mw.osc if l == 1) == 4
    assert weight(mw.osc) == 5
    assert check_max_matching(MatchingTriple(g, mw)).accepted

    assert time.perf_counter() - started < 1.0


def test_criterion_2_subset_check_regression():
    """A matching with an edge absent from G must fail the edge-map check.

    The weakened variant below drops that check and accepts the triple:
    the historical checker bug this guards against.
    """
    g = Graph(4, [(2, 3), (1, 2)])  # both edges share vertex 2: max matching 1
    m = Graph(4, [(0, 1), (2, 3)])  # (0, 1) is not an edge of g
    w = MatchingWitness(m, (0, 0), (0, 1, 1, 0))

    # Every condition except the edge map genuinely holds: M is a
    # matching, the labels cover both G-edges, and the cover bound equals
    # |M| = 2. Only comparing M's edges against G's can catch the forgery.
    assert check_matching(m)
    assert check_osc(g, w.osc)
    assert weight(w.osc) == m.num_edges == 2

    def weakened_checker(t: MatchingTriple) -> bool:
        mm, osc = t.witness.matching, t.witness.osc
        return (
            check_matching(mm)
            and check_osc(t.graph, osc)
            and mm.num_edges == weight(osc)
        )

    triple = MatchingTriple(g, w)
    assert weakened_checker(triple)
    verdict = check_max_matching(triple)
    assert not verdict.accepted
    assert verdict.clause == "subset"
    # The weakened checker certified a strictly wrong answer: it claims a
    # 2-edge matching in a graph whose true maximum is 1.
    assert oracle_max_matching_size(g) == 1 < m.num_edges


@dataclass
class SweepOutcome:
    graphs: dict[str, int] = field(default_factory=dict)
    triples: int = 0
    undersampled: int = 0  # graphs with >= 50 available mutations but < 50 tested
    not_exhausted: int = 0  # graphs with < 50 available mutations not all tested
    discrepancies: list = field(default_factory=list)
    postcondition_violations: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def sweep() -> SweepOutcome:
    """Shared exhaustive sweep over small graphs: solver triples + mutations.

    For every graph in each problem's universe, the solver's own triple
    plus up to 60 single-field witness mutations are judged twice (checker
    vs. direct predicate evaluation); accepted triples additionally have
    their claim compared against a brute-force oracle.
    """
    rng = random.Random(2026)
    out = SweepOutcome()
    started = time.perf_counter()

    def judge(problem: str, g: Graph, triples, oracle_check) -> None:
        for tr in triples:
            out.triples += 1
            agree, checker_says, eval_says = verdicts_agree(problem, tr)
            if not agree:
                out.discrepancies.append((problem, g, tr.witness, checker_says, eval_says))
            if checker_says is True and not oracle_check(tr):
                out.postcondition_violations.append((problem, g, tr.witness))

    def sample(t, mutations) -> list:
        space = list(mutations)
        chosen = mutation_sample(space, rng, 60)
        if len(space) >= 50 and len(chosen) < 50:
            out.undersampled += 1
        if len(space) < 50 and len(chosen) != len(space):
            out.not_exhausted += 1
        return [t] + chosen

    # Connectivity: every undirected graph (self-loops allowed) on 1..4
    # vertices. Accepted tree claims must be really connected, accepted
    # cut claims really disconnected.
    count = 0
    for n in range(1, 5):
        for g in enumerate_graphs(n, self_loops=True):
            count += 1
            truth = oracle_connected(g)
            t = solver_triple("connected", g)
            judge(
                "connected",
                g,
                sample(t, connectivity_mutations(g, t)),
                lambda tr: tr.connected_claim == truth,
            )
    out.graphs["connected"] = count

    # Shortest paths: every digraph (self-loops allowed) on 1..3 vertices
    # and every loopless digraph on 4, with costs e mod 3 and source 0.
    # Accepted distances must equal the relaxation oracle pointwise.
    count = 0
    for n, loops in ((1, True), (2, True), (3, True), (4, False)):
        for g in enumerate_graphs(n, directed=True, self_loops=loops):
            count += 1
            cost = tuple(e % 3 for e in range(g.num_edges))
            mu = oracle_mu(g, cost, 0)
            t = solver_triple("sp", g, cost, 0)
            judge(
                "sp",
                g,
                sample(t, sp_mutations(g, t)),
                lambda tr: tuple(tr.witness.dist) == mu,
            )
    out.graphs["sp"] = count

    # Matching: every loopless undirected graph on 0..4 vertices. Accepted
    # matchings must have the exhaustively-determined maximum cardinality.
    count = 0
    for n in range(5):
        for g in enumerate_graphs(n, self_loops=False):
            count += 1
            best = oracle_max_matching_size(g)
            t = solver_triple("matching", g)
            judge(
                "matching",
                g,
                sample(t, matching_mutations(g, t)),
                lambda tr: tr.witness.matching.num_edges == best,
            )
    out.graphs["matching"] = count

    out.elapsed = time.perf_counter() - started
    return out


def test_criterion_3_decision_property_sweep(sweep: SweepOutcome):
    """Checker verdict == direct predicate evaluation, exhaustively."""
    # The universes really were exhausted: 2^1 + 2^3 + 2^6 + 2^10 subsets
    # of the loop-allowing pair universe on 1..4 vertices, and so on.
    assert sweep.graphs["connected"] == 2 + 8 + 64 + 1024
    assert sweep.graphs["sp"] == 2 + 16 + 512 + 4096
    assert sweep.graphs["matching"] == 1 + 1 + 2 + 8 + 64
    # Per graph: >= 50 mutations whenever that many exist, every mutation
    # when fewer do. The tiniest graphs have almost no fields to flip, so
    # the meaningful guarantee is per-graph, not a grand total.
    assert sweep.undersampled == 0
    assert sweep.not_exhausted == 0
    assert sweep.triples > 200_000
    assert sweep.discrepancies == []
    assert sweep.elapsed < 60.0


def test_criterion_4_witness_property_sweep(sweep: SweepOutcome):
    """Every accepted triple's claim holds against a brute-force oracle.

    This is the point of the whole construction: acceptance of any witness
    (the solver's or a mutated one) must entail the postcondition.
    """
    assert sweep.postcondition_violations == []


def test_criterion_5_shortest_path_bounds():
    """Distances passing start+trian are lower bounds; accepted ones exact."""
    rng = random.Random(51)
    lower_bound_checks = 0
    nontrivial = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        g, cost = random_digraph(rng, n, 2 * n, 5)
        source = rng.randrange(n)
        mu = oracle_mu(g, cost, source)

        def witness_with(dist) -> SpWitness:
            return SpWitness(source, dist, dist, (None,) * n, cost)

        candidates = []
        # Scaled-down true distances: these satisfy start_val and trian by
        # monotonicity, and strictly undercut mu whenever it is positive.
        for num_, den in ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)):
            candidates.append(
                tuple(
                    INFINITY if d.is_infinite else ExtNat(d.value * num_ // den)
                    for d in mu
                )
            )
        for _ in range(3):
            candidates.append(
                tuple(
                    rng.choice((INFINITY,) + tuple(ExtNat(k) for k in range(8)))
                    for _ in range(n)
                )
            )
        for dist in candidates:
            w = witness_with(dist)
            if check_start_val(w) and check_trian(g, w):
                lower_bound_checks += 1
                assert all(ext_le(dist[v], mu[v]) for v in range(n)), (g, cost, dist, mu)
                if any(not ext_le(mu[v], dist[v]) for v in range(n)):  # dist[v] < mu[v]
                    nontrivial += 1

        accepted = solve_shortest_paths(g, cost, source)
        t = SpTriple(g, accepted.witness)
        assert check_shortest_paths(t).accepted
        assert tuple(accepted.witness.dist) == mu
    # The lower-bound direction was exercised on plenty of vectors that
    # sit strictly below the true distances.
    assert lower_bound_checks >= 5000
    assert nontrivial >= 1000


def test_criterion_6_depth_conjunct_necessity(zero_cycle_graph, zero_cycle_cost):
    """Dropping the depth conjunct lets a zero-cost cycle forge distances.

    Vertices 1 and 3 sit on a zero-cost two-cycle at true distance 1.
    A forged witness claims distance 0 for both, each justified by the
    edge from the other: every distance equality holds, so a checker
    whose justification step ignores the depth numbers accepts it.
    """
    g, cost = zero_cycle_graph, zero_cycle_cost
    forged = SpWitness(
        0,  # source
        (ExtNat(0), ExtNat(0), ExtNat(1), ExtNat(0), INFINITY),  # dist
        (ExtNat(0), ExtNat(1), ExtNat(1), ExtNat(2), INFINITY),  # num
        (None, 4, 1, 3, None),  # parent_edge
        cost,  # cost
    )

    def weak_just(g: Graph, w: SpWitness) -> bool:
        # check_just minus its final conjunct (num[v] == num[u] + 1).
        for v in range(g.num_verts):
            if v == w.source or w.num[v].is_infinite:
                continue
            e = w.parent_edge[v]
            if e is None or not 0 <= e < g.num_edges:
                return False
            u, trg = g.edges[e]
            if trg != v or w.dist[v] != ext_add(w.dist[u], w.cost[e]):
                return False
        return True

    def weakened_checker(t: SpTriple) -> bool:
        return (
            check_start_val(t.witness)
            and check_no_path(t.graph, t.witness)
            and check_trian(t.graph, t.witness)
            and weak_just(t.graph, t.witness)
        )

    triple = SpTriple(g, forged)
    assert weakened_checker(triple)
    verdict = check_shortest_paths(triple)
    assert not verdict.accepted
    assert verdict.clause == "just"
    # And the forgery is a genuinely wrong answer, not an alternate truth.
    mu = oracle_mu(g, cost, 0)
    assert forged.dist != mu
    assert mu[1] == ExtNat(1) and forged.dist[1] == ExtNat(0)


def test_criterion_7_cover_bound_inequality():
    """No matching beats any valid cover's bound, over all graphs n <= 5."""
    rng = random.Random(7007)
    graphs = 0
    comparisons = 0
    for n in range(6):
        for g in enumerate_graphs(n, self_loops=False):
            graphs += 1
            largest = max(len(m) for m in enumerate_matchings(g))
            # Random walk through valid covers, starting from all-ones
            # (always a cover) and keeping only validity-preserving moves.
            labels = [1] * n
            for _ in range(200):
                if n:
                    v, new = rng.randrange(n), rng.randrange(n)
                    old = labels[v]
                    labels[v] = new
                    if not check_osc(g, labels):
                        labels[v] = old
                assert check_osc(g, labels)
                assert largest <= weight(labels), (g, largest, tuple(labels))
                comparisons += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024
    assert comparisons == graphs * 200


MASK = 0xFFFFFFFF
INT_MIN, INT_MAX = -(2**31), 2**31 - 1
USHORT_MAX = 2**16 - 1


def _inf(x: int) -> bool:
    return x < 0


def _val(x: int) -> int:
    return x & MASK


def bounded_sp_checker(
    g: Graph,
    cost: tuple[int, ...],
    s: int,
    dist: list[int],
    num: list[int],
    parent_edge: list[int],
) -> bool:
    """Word-size reference checker: 32-bit values, negative means infinite.

    Finite values are capped at 2**31 - 1 by the encoding, costs at
    2**16 - 1, and additions wrap modulo 2**32, mirroring unsigned
    machine arithmetic exactly.
    """

    def start_val() -> bool:
        return dist[s] == 0

    def no_path() -> bool:
        return all(_inf(dist[v]) == _inf(num[v]) for v in range(g.num_verts))

    def trian() -> bool:
        for e, (u, v) in enumerate(g.edges):
            if _inf(dist[u]):
                continue
            if _inf(dist[v]):
                return False
            if _val(dist[v]) > (_val(dist[u]) + cost[e]) & MASK:
                return False
        return True

    def just() -> bool:
        for v in range(g.num_verts):
            if v == s or _inf(num[v]):
                continue
            e = parent_edge[v]
            if e < 0 or e >= g.num_edges:
                return False
            u, trg = g.edges[e]
            if trg != v:
                return False
            if _inf(dist[u]) or _val(dist[v]) != (_val(dist[u]) + cost[e]) & MASK:
                return False
            if _inf(num[u]) or _val(num[v]) != (_val(num[u]) + 1) & MASK:
                return False
        return True

    return start_val() and no_path() and trian() and just()


def _decode_witness(
    s: int, dist: list[int], num: list[int], parent_edge: list[int], cost
) -> SpWitness:
    return SpWitness(
        s,  # source
        tuple(INFINITY if _inf(x) else ExtNat(x) for x in dist),  # dist
        tuple(INFINITY if _inf(x) else ExtNat(x) for x in num),  # num
        tuple(None if p < 0 else p for p in parent_edge),  # parent_edge
        cost,  # cost
    )


def test_criterion_8_bounded_arithmetic_parity():
    """The exact checker and the word-size reference never disagree.

    1000 instances, with finite distances pushed against 2**31 - 1 and
    costs against 2**16 - 1 so the comparison exercises the top of the
    machine ranges, plus encoded solver witnesses and near-miss
    corruptions of them.
    """
    rng = random.Random(88)
    huge = [INT_MAX, INT_MAX - 1, INT_MAX - USHORT_MAX, INT_MAX - 2 * USHORT_MAX]
    negatives = [-1, -2, INT_MIN]
    accepted = rejected = 0
    for round_ in range(1000):
        n = rng.randint(1, 8)
        g, _ = random_digraph(rng, n, 12, 0)
        m = g.num_edges
        cost = tuple(
            rng.choice((0, 1, 2, 3, USHORT_MAX, USHORT_MAX - 1, USHORT_MAX - 7))
            for _ in range(m)
        )
        if round_ % 5 < 3:
            # Fully random encoded arrays, boundary-heavy.
            dist_pool = [0, 1, 2, 3, USHORT_MAX, *huge, *negatives]
            num_pool = [0, 1, 2, 3, n, INT_MAX, *negatives]
            dist = [rng.choice(dist_pool) for _ in range(n)]
            num = [rng.choice(num_pool) for _ in range(n)]
            pe = [rng.randint(-2, m + 1) for _ in range(n)]
        else:
            # The solver's witness, encoded; sometimes corrupted in one
            # place with a boundary value to produce near-miss rejects.
            w = solve_shortest_paths(g, cost, 0).witness
            dist = [-1 if d.is_infinite else d.value for d in w.dist]
            num = [-1 if k.is_infinite else k.value for k in w.num]
            pe = [-1 if p is None else p for p in w.parent_edge]
            if round_ % 5 == 4:
                which = rng.randrange(3)
                v = rng.randrange(n)
                if which == 0:
                    dist[v] = rng.choice(huge + negatives + [0])
                elif which == 1:
                    num[v] = rng.choice((INT_MAX, -1, 0, 1))
                else:
                    pe[v] = rng.choice((-1, m, m + 1, 0))
        reference = bounded_sp_checker(g, cost, 0, dist, num, pe)
        exact = check_shortest_paths(
            SpTriple(g, _decode_witness(0, dist, num, pe, cost))
        ).accepted
        assert reference == exact, (g, cost, dist, num, pe)
        accepted += exact
        rejected += not exact
    # The corpus must exercise both verdicts substantially.
    assert accepted >= 100 and rejected >= 100


def test_criterion_9_solver_completeness(monkeypatch):
    """1000 random instances per problem: always certified, always optimal."""
    # Its matching graphs have up to 30 edges, but at most 10 vertices and so
    # at most 9496 matchings (those of K10) to enumerate.
    monkeypatch.setattr(oracles, "MAX_EDGES", 45)
    rng = random.Random(99)
    started = time.perf_counter()

    for _ in range(1000):
        g = random_multigraph(rng, rng.randint(1, 50), rng.randint(0, 100))
        res = solve_connectivity(g)
        assert check_connectivity(ConnectivityTriple(g, res.output, res.witness)).accepted
        assert res.output == oracle_connected(g)

    for _ in range(1000):
        g, cost = random_digraph(rng, rng.randint(1, 50), rng.randint(0, 100), 10)
        source = rng.randrange(g.num_verts)
        res = solve_shortest_paths(g, cost, source)
        assert check_shortest_paths(SpTriple(g, res.witness)).accepted
        assert res.output == oracle_mu(g, cost, source)

    for _ in range(1000):
        g = random_loopless_graph(rng, rng.randint(0, 16), 30)
        res = solve_max_matching(g)
        assert check_max_matching(MatchingTriple(g, res.witness)).accepted
        if g.num_verts <= 10:
            assert res.output.num_edges == oracle_max_matching_size(g)

    for _ in range(1000):
        a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
        if a == 0 and b == 0:
            a = 1
        res = solve_gcd(a, b)
        s, t = res.witness
        assert res.output == math.gcd(a, b)
        assert check_gcd(GcdTriple(a, b, res.output, s, t)).accepted

    assert time.perf_counter() - started < 120.0
