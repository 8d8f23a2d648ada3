import gc
import hashlib
import json
import random
import sys

import pytest

from certigraph import formats
from certigraph.connectivity import CutWitness, SpanningTreeWitness
from certigraph.formats import (
    LengthMismatchError,
    WellformednessError,
    parse_connectivity_witness,
    parse_graph,
    parse_matching_witness,
    parse_sp_witness,
    serialize_connectivity_witness,
    serialize_graph,
    serialize_matching_witness,
    serialize_sp_witness,
)
from certigraph.gcd import GcdTriple, parse_gcd_line, serialize_gcd
from certigraph.graph import Graph
from certigraph.matching import MatchingWitness
from certigraph.solvers import (
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)
from certigraph.verdict import ParseError

from conftest import DATA
from helpers import random_digraph, random_loopless_graph, random_multigraph


def test_golden_graph_files_match_fixtures(demo_graph, zero_cycle_graph, zero_cycle_cost, twelve_graph):
    g, cost = parse_graph((DATA / "connected_5v.graph").read_text())
    assert (g, cost) == (demo_graph, None)
    g, cost = parse_graph((DATA / "sp_zero_cycle.graph").read_text())
    assert (g, cost) == (zero_cycle_graph, zero_cycle_cost)
    g, cost = parse_graph((DATA / "matching_12v.graph").read_text())
    assert (g, cost) == (twelve_graph, None)


def test_golden_witness_files_match_fixtures(
    demo_graph, demo_tree, zero_cycle_graph, zero_cycle_cost, zero_cycle_witness,
    twelve_graph, twelve_witness,
):
    w = parse_connectivity_witness((DATA / "connected_5v.tree").read_text(), demo_graph)
    assert w == demo_tree
    w = parse_sp_witness(
        (DATA / "sp_zero_cycle.sp").read_text(), zero_cycle_graph, zero_cycle_cost
    )
    assert w == zero_cycle_witness
    w = parse_matching_witness((DATA / "matching_12v.matching").read_text(), twelve_graph)
    assert w == twelve_witness
    assert parse_gcd_line((DATA / "gcd_example.gcd").read_text()) == GcdTriple(12, 8, 4, 1, -1)


def test_graph_round_trip():
    rng = random.Random(18)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(0, 8), 12)
        # With zero edges there is no cost column to observe, so parsing
        # reports the empty cost vector; otherwise the costs survive the round trip.
        assert parse_graph(serialize_graph(g)) == (g, None if g.num_edges else ())
        g2, cost = random_digraph(rng, rng.randint(1, 8), 12, 9)
        assert parse_graph(serialize_graph(g2, cost)) == (g2, cost)


def test_witness_round_trips():
    rng = random.Random(19)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 8), 12)
        w = solve_connectivity(g).witness
        assert parse_connectivity_witness(serialize_connectivity_witness(w), g) == w
        gd, cost = random_digraph(rng, rng.randint(1, 8), 12, 5)
        sw = solve_shortest_paths(gd, cost, 0).witness
        assert parse_sp_witness(serialize_sp_witness(sw), gd, cost) == sw
        gl = random_loopless_graph(rng, rng.randint(0, 8), 10)
        mw = solve_max_matching(gl).witness
        assert parse_matching_witness(serialize_matching_witness(mw), gl) == mw
    t = GcdTriple(240, 46, 2, -9, 47)
    assert parse_gcd_line(serialize_gcd(t)) == t


def test_cut_round_trip():
    g = Graph(4, [(0, 1), (2, 3)])
    w = CutWitness(frozenset({0, 1}))
    text = serialize_connectivity_witness(w)
    assert text == "cut 2\n0\n1\n"
    assert parse_connectivity_witness(text, g) == w


def test_cut_rejects_repeated_vertex():
    # The set would shrink to {2}, which is no longer what the file declares.
    with pytest.raises(ParseError, match="line 3: vertex 2 repeats"):
        parse_connectivity_witness("cut 2\n2\n2\n", Graph(3, [(0, 1)]))


def test_serialized_forms_are_trailing_newline_terminated(demo_graph):
    assert serialize_graph(demo_graph).endswith("1 1\n")
    assert not serialize_graph(demo_graph).endswith("\n\n")


def test_tolerates_trailing_blank_lines(demo_graph, demo_tree):
    text = serialize_connectivity_witness(demo_tree) + "\n  \n"
    assert parse_connectivity_witness(text, demo_graph) == demo_tree


def test_rejects_interior_blank_line():
    with pytest.raises(ParseError, match="blank line"):
        parse_graph("graph 2 1\n\n0 1\n")


def test_rejects_bad_tag_and_counts():
    with pytest.raises(ParseError):
        parse_graph("digraph 2 1\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2\n")
    with pytest.raises(LengthMismatchError):
        parse_graph("graph 2 2\n0 1\n")
    with pytest.raises(LengthMismatchError):
        parse_graph("graph 2 0\n0 1\n")
    with pytest.raises(ParseError, match="empty file"):
        parse_graph("")


def test_rejects_mixed_arity():
    with pytest.raises(ParseError, match="mixed"):
        parse_graph("graph 2 2\n0 1 5\n1 0\n")
    with pytest.raises(ParseError, match="mixed"):
        parse_graph("graph 2 2\n0 1\n1 0 5\n")


def test_rejects_negative_and_garbage_tokens():
    with pytest.raises(ParseError):
        parse_graph("graph 2 1\n0 -1\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2 1\n0 x\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2 1\n0 1 -3\n")
    with pytest.raises(ParseError):
        parse_gcd_line("gcd 12 8 -4 1 -1\n")
    with pytest.raises(ParseError):
        parse_gcd_line("gcd 12 8 4 1\n")
    with pytest.raises(ParseError):
        parse_gcd_line("gcd 12 8 4 1 -1\ngcd 1 1 1 1 0\n")
    # Signed tokens still have to be integers.
    with pytest.raises(ParseError):
        parse_gcd_line("gcd 12 8 4 - 1\n")


def test_endpoint_out_of_range_is_wellformedness_error():
    with pytest.raises(WellformednessError):
        parse_graph("graph 2 1\n0 2\n")


def test_sp_witness_parse_errors(zero_cycle_graph, zero_cycle_cost):
    with pytest.raises(ParseError):
        parse_sp_witness("sp 0\n0 0\n", zero_cycle_graph, zero_cycle_cost)
    with pytest.raises(LengthMismatchError):
        parse_sp_witness("sp 0\n0 0 -\n", zero_cycle_graph, zero_cycle_cost)
    with pytest.raises(ParseError):
        parse_sp_witness(
            "sp 0\n0 0 -\n1 1 0\n1 1 1\n1 2 3\ninf INF -\n",
            zero_cycle_graph,
            zero_cycle_cost,
        )


def test_matching_witness_parse_errors(twelve_graph):
    with pytest.raises(ParseError):
        parse_matching_witness("matching 1\n0 1\n" + "0 " * 12 + "\n", twelve_graph)
    with pytest.raises(LengthMismatchError):
        parse_matching_witness("matching 0\n0 0 0\n", twelve_graph)
    with pytest.raises(LengthMismatchError, match="labels"):
        parse_matching_witness("matching 0\n0 0 0 0\n", twelve_graph)


def test_matching_witness_empty_vertex_set():
    g = Graph(0, [])
    text = "matching 0\n"
    w = parse_matching_witness(text, g)
    assert w.matching == Graph(0, []) and w.edge_map == () and w.osc == ()
    assert serialize_matching_witness(w) == text


def test_tree_witness_needs_one_row_per_vertex(demo_graph):
    with pytest.raises(LengthMismatchError):
        parse_connectivity_witness("tree 0\n- 0\n", demo_graph)
    with pytest.raises(ParseError):
        parse_connectivity_witness("tree 0\n- 0 7\n" + "- 1\n" * 4, demo_graph)


def test_parse_then_serialize_is_identity_on_golden_files():
    text = (DATA / "connected_5v.graph").read_text()
    g, cost = parse_graph(text)
    assert serialize_graph(g, cost) == text
    text = (DATA / "sp_zero_cycle.graph").read_text()
    g, cost = parse_graph(text)
    assert serialize_graph(g, cost) == text
    sp_text = (DATA / "sp_zero_cycle.sp").read_text()
    assert serialize_sp_witness(parse_sp_witness(sp_text, g, cost)) == sp_text
    text = (DATA / "connected_5v.tree").read_text()
    g5, _ = parse_graph((DATA / "connected_5v.graph").read_text())
    assert serialize_connectivity_witness(parse_connectivity_witness(text, g5)) == text
    text = (DATA / "matching_12v.matching").read_text()
    g12, _ = parse_graph((DATA / "matching_12v.graph").read_text())
    assert serialize_matching_witness(parse_matching_witness(text, g12)) == text
    text = (DATA / "gcd_example.gcd").read_text()
    assert serialize_gcd(parse_gcd_line(text)) == text


def test_gcd_solver_round_trips_through_text():
    res = solve_gcd(240, 46)
    s, t = res.witness
    line = serialize_gcd(GcdTriple(240, 46, res.output, s, t))
    assert line == "gcd 240 46 2 -9 47\n"
    assert parse_gcd_line(line) == GcdTriple(240, 46, 2, -9, 47)


# Every file kind is read in bulk where the file is in the serializers'
# layout, and by line otherwise. The per-line reader defines the formats,
# so both paths must give the same value, or the same exception type and
# message, on every input. The mutations aim at the bulk reader's
# boundaries: layouts it leaves to the per-line reader, tokens that int()
# reads but the formats refuse, counts and ranges it must check.
_ODD_TOKENS = ("١", "+1", "1_0", "INF", "-", "007", "9" * 5000, "1" + "0" * 4999)


def _mutants(text: str, rng: random.Random) -> list[str]:
    lines = text.split("\n")[:-1]

    def edit(change, first: int = 1) -> str:
        i = rng.randrange(min(first, len(lines) - 1), len(lines))
        return "\n".join(lines[:i] + [change(lines[i])] + lines[i + 1 :]) + "\n"

    def token(tok: str, first: int = 1) -> str:
        def put(line: str) -> str:
            toks = line.split(" ")
            toks[rng.randrange(len(toks))] = tok
            return " ".join(toks)

        return edit(put, first)

    out = [
        text,
        text.replace("\n", "\r\n"),
        text[:-1],
        text + "\n \n",
        text.replace("\n", "\x0c\n", 1),
        edit(lambda line: line.replace(" ", "\t", 1), 0),
        edit(lambda line: line + "  ", 0),
        edit(lambda line: "\n" + line),
        edit(lambda line: line + " 0"),
        edit(lambda line: line + "\x0b"),
    ]
    out += [token(tok) for tok in _ODD_TOKENS]
    out.append(token(rng.choice(_ODD_TOKENS), 0))
    # Endpoints, ids and counts in and out of range.
    out += [token(tok) for tok in ("4", "8", "12", str(len(lines)), str(10**12))]
    return out


def _outcome(parse, *args):
    try:
        return "value", parse(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _format_cases(rng: random.Random):
    """(kind, serialized text, public reader, context) tuples of the five graph-based kinds."""
    # Readers only parse, so a matching file need not hold a matching or a
    # cover: its M-edges and labels come from their own rng, not from the
    # solver, and the files do not move when the solver's search does.
    side = random.Random(291)
    for _ in range(12):
        g = random_multigraph(rng, rng.randint(1, 9), 14)
        gd, cost = random_digraph(rng, rng.randint(1, 9), 14, 30)
        gl = random_loopless_graph(rng, rng.randint(1, 9), 12)
        conn = solve_connectivity(g).witness
        yield "graph2", serialize_graph(g), parse_graph, ()
        yield "graph3", serialize_graph(gd, cost), parse_graph, ()
        yield (
            "cut" if isinstance(conn, CutWitness) else "tree",
            serialize_connectivity_witness(conn),
            parse_connectivity_witness,
            (g,),
        )
        sp = solve_shortest_paths(gd, cost, rng.randrange(gd.num_verts)).witness
        yield "sp", serialize_sp_witness(sp), parse_sp_witness, (gd, cost)
        ids = sorted(side.sample(range(gl.num_edges), side.randint(0, gl.num_edges)))
        labels = [side.randrange(gl.num_verts) for _ in range(gl.num_verts)]
        mw = MatchingWitness(Graph(gl.num_verts, [gl.edges[i] for i in ids]), ids, labels)
        yield "matching", serialize_matching_witness(mw), parse_matching_witness, (gl,)


def test_bulk_readers_agree_with_the_per_line_reader(monkeypatch):
    rng = random.Random(404)
    cases = [
        (kind, mutant, parse, ctx)
        for kind, text, parse, ctx in _format_cases(rng)
        for mutant in _mutants(text, rng)
    ]
    got = [_outcome(parse, mutant, *ctx) for _, mutant, parse, ctx in cases]
    # With the bulk reader refusing every file, the per-line reader reads all.
    monkeypatch.setattr(formats, "_in_bulk", lambda *args: None)
    for (kind, mutant, parse, ctx), outcome in zip(cases, got):
        assert outcome == _outcome(parse, mutant, *ctx), (kind, mutant[:200])
        # Totality: a value or a format error, never a stray exception.
        if outcome[0] != "value":
            assert issubclass(outcome[0], (ParseError, WellformednessError)), (kind, outcome)
    assert {case[0] for case in cases} == {"graph2", "graph3", "tree", "cut", "sp", "matching"}


def test_serializer_output_takes_the_bulk_readers(monkeypatch):
    # Large files in the serializers' own layout must never need the
    # per-line reader; a change that silently falls back fails here.
    rng = random.Random(5000)
    n = 5000
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)]
    edges += [(v, v + 1) for v in range(n - 1)]
    cost = tuple(rng.choice((0, rng.randrange(10**6))) for _ in edges)
    g = Graph(n, edges)
    tree = solve_connectivity(g).witness
    gd = Graph(n + 3, edges)  # three vertices no edge reaches: INF and '-'
    sp = solve_shortest_paths(gd, cost, 0).witness
    cut = CutWitness(frozenset(rng.sample(range(n), n // 2)))
    gl = random_loopless_graph(rng, 3500, 3 * 3500)
    matching = solve_max_matching(gl).witness
    texts = (serialize_graph(g), serialize_graph(g, cost), serialize_graph(gd, cost))
    tree_text, sp_text = serialize_connectivity_witness(tree), serialize_sp_witness(sp)
    cut_text, matching_text = serialize_connectivity_witness(cut), serialize_matching_witness(matching)

    def refuse(*args):
        raise AssertionError("per-line reader called on serializer output")

    monkeypatch.setattr(formats, "_by_line", refuse)
    assert parse_graph(texts[0]) == (g, None)
    assert parse_graph(texts[1]) == (g, cost)
    assert parse_graph(texts[2]) == (gd, cost)
    assert parse_connectivity_witness(tree_text, g) == tree
    assert parse_sp_witness(sp_text, gd, cost) == sp
    assert "INF INF -" in sp_text
    assert parse_connectivity_witness(cut_text, g) == cut
    assert parse_matching_witness(matching_text, gl) == matching
    assert matching.matching.num_edges > 1000


# Tokens json reads but the formats refuse. The bulk reader decodes every
# number with one json pass after its scan, so the scan alone must keep
# these out, in every column and in the tag line's values.
_JSON_TOKENS = (
    "-3", "1e5", "1E5", "1.0", "true", "null", "NaN", "Infinity", "0x1", "[1]", '"1"', "1,2"
)


def _in_every_column(text: str, tok: str, rng: random.Random) -> list[str]:
    """``text`` with ``tok`` in one place at a time: each tag line value, and
    each column of one row and of the last line (the labels, for matching)."""
    lines = text.split("\n")[:-1]
    out = []
    for i in sorted({0, rng.randrange(len(lines)), len(lines) - 1}):
        toks = lines[i].split(" ")
        for j in range(1 if i == 0 else 0, len(toks)):
            line = " ".join(toks[:j] + [tok] + toks[j + 1 :])
            out.append("\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n")
    return out


def _read_both_ways(monkeypatch, rng: random.Random, tokens) -> list[tuple[str, tuple]]:
    """(kind, outcome) of each file of each kind with each token in every
    column; the outcome must not change when ``_in_bulk`` refuses every file,
    which it does from here on."""
    cases = [
        (kind, mutant, parse, ctx)
        for kind, text, parse, ctx in _format_cases(rng)
        for tok in tokens
        for mutant in _in_every_column(text, tok, rng)
    ]
    got = [_outcome(parse, mutant, *ctx) for _, mutant, parse, ctx in cases]
    monkeypatch.setattr(formats, "_in_bulk", lambda *args: None)
    for (kind, mutant, parse, ctx), outcome in zip(cases, got):
        assert outcome == _outcome(parse, mutant, *ctx), (kind, mutant)
    return [(case[0], outcome) for case, outcome in zip(cases, got)]


def test_tokens_json_reads_are_refused_as_by_line(monkeypatch):
    outcomes = _read_both_ways(monkeypatch, random.Random(1301), _JSON_TOKENS)
    assert [(kind, o) for kind, o in outcomes if o[0] == "value"] == []
    assert {kind for kind, _ in outcomes} == {"graph2", "graph3", "tree", "cut", "sp", "matching"}


def test_numbers_json_refuses_are_read_by_line(monkeypatch):
    # json refuses a leading zero and a number past the interpreter's digit
    # limit; the bulk reader then gives None, and the per-line reader reads
    # the same values.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or float("inf")
    g = Graph(3, [(0, 1), (1, 2)])
    texts = {}
    for digits in (4300, 4301):
        cost = (10**digits - 1, 5)
        texts[f"{digits} digits"] = serialize_graph(g, cost), (g, cost), digits > limit
    texts["007"] = serialize_graph(g, (7, 5)).replace(" 7\n", " 007\n"), (g, (7, 5)), True
    for name, (text, expected, by_line) in texts.items():
        assert (formats._in_bulk(text, formats._EDGES[3]) is None) == by_line, name
        assert parse_graph(text) == expected, name
    outcomes = _read_both_ways(monkeypatch, random.Random(7), ("007",))
    assert sum(o[0] == "value" for _, o in outcomes) > len(outcomes) // 4
    for name, (text, expected, _) in texts.items():
        assert parse_graph(text) == expected, name


_SERIALIZERS = {
    "graph2": lambda parsed: serialize_graph(*parsed),
    "graph3": lambda parsed: serialize_graph(*parsed),
    "tree": serialize_connectivity_witness,
    "cut": serialize_connectivity_witness,
    "sp": serialize_sp_witness,
    "matching": serialize_matching_witness,
    "gcd": serialize_gcd,
}


def _golden_cases(rng: random.Random):
    for _ in range(2):
        yield from _format_cases(rng)
    for _ in range(24):
        a, b = rng.randrange(1, 10**12), rng.randrange(10**12)
        res = solve_gcd(a, b)
        yield "gcd", serialize_gcd(GcdTriple(a, b, res.output, *res.witness)), parse_gcd_line, ()


def _golden_mutants(kind: str, text: str, rng: random.Random) -> list[str]:
    """Single and double faults, plus orders of faults a reader must keep."""
    singles = _mutants(text, rng)
    out = singles + [rng.choice(_mutants(m, rng)) for m in singles if "\n" in m]
    lines = text.split("\n")[:-1]
    if len(lines) > 1:  # a duplicated body line
        i = rng.randrange(1, len(lines))
        out.append("\n".join(lines[: i + 1] + lines[i:]) + "\n")
    if kind == "cut" and len(lines) > 1:  # a repeated vertex, then a bad token
        out.append("\n".join([f"cut {len(lines) + 1}", *lines[1:], lines[1], "x"]) + "\n")
    if kind.startswith("graph") and len(lines) > 2:
        n = lines[0].split(" ")[1]
        i = rng.randrange(1, len(lines) - 1)
        # An endpoint out of range, then a bad cost or a bad line.
        for bad, after in ((f"{n} 0 x", lines[i + 1]), (f"0 {n}", "garbage"), (f"0 {n} 1", "0 x 1")):
            out.append("\n".join(lines[:i] + [bad, after] + lines[i + 2 :]) + "\n")
    return out


def test_parse_outcomes_match_the_golden_digest():
    # One sha256 over (kind, file, outcome) pins what every reader accepts
    # and every message it gives, whichever path reads the file. Values are
    # compared as the serializers write them, so the digest does not depend
    # on how the classes print.
    rng = random.Random(2718)
    digest = hashlib.sha256()
    count = 0
    for kind, text, parse, ctx in _golden_cases(rng):
        for mutant in _golden_mutants(kind, text, rng):
            try:
                value = parse(mutant, *ctx)
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = _SERIALIZERS[kind](value)
            digest.update(json.dumps([kind, mutant, outcome]).encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (
        7144,
        "f9db661e3b83b756cb9d070c4de55c98027da9ccc7924ed05077becb5d810fe3",
    )


def test_numbers_past_the_interpreter_digit_limit_round_trip():
    huge = 7 * 10**9999 + 3  # 10^4 digits
    g = Graph(2, [(0, 1), (1, 1)])
    text = serialize_graph(g, (huge, 0))
    assert text.split("\n")[1] == "0 1 7" + "0" * 9998 + "3"
    assert parse_graph(text) == (g, (huge, 0))
    sp = solve_shortest_paths(g, (huge, 0), 0).witness
    assert parse_sp_witness(serialize_sp_witness(sp), g, (huge, 0)) == sp
    t = GcdTriple(10**5000, 10**5000 + 1, 1, -huge, huge)
    assert parse_gcd_line(serialize_gcd(t)) == t
    long = 10**4999 + 1  # 5000 digits: ids, depths and labels too
    tree = SpanningTreeWitness(0, (None, 0), (0, long))
    assert parse_connectivity_witness(serialize_connectivity_witness(tree), g) == tree
    cut = CutWitness(frozenset({1, long}))
    assert parse_connectivity_witness(serialize_connectivity_witness(cut), g) == cut
    mw = MatchingWitness(Graph(2, [(0, 1)]), (0,), (long, 1))
    assert parse_matching_witness(serialize_matching_witness(mw), g) == mw


# The bulk reader checks a file's shape before json reads it: what is left
# of the rows without digits and the layout's word letters, and that each
# word ends at its own column's separator. These files aim at that check;
# each must read the same in bulk as by line.
def _edit(name: str, old: str, new: str) -> str:
    """The golden file ``name`` with its first ``old`` made ``new``."""
    text = (DATA / name).read_text()
    assert old in text, (name, old)
    return text.replace(old, new, 1)


def _shape_cases(demo_graph, zero_cycle_graph, zero_cycle_cost, twelve_graph):
    sp, tree = "sp_zero_cycle.sp", "connected_5v.tree"
    graph, matching = "sp_zero_cycle.graph", "matching_12v.matching"
    sp_ctx = (zero_cycle_graph, zero_cycle_cost)
    return {
        "INF in sp's edge-id column": (
            parse_sp_witness, _edit(sp, "1 1 0\n", "1 1 INF\n"), *sp_ctx
        ),
        "- in sp's dist column": (parse_sp_witness, _edit(sp, "1 1 1\n", "- 1 1\n"), *sp_ctx),
        "- in sp's num column": (parse_sp_witness, _edit(sp, "1 2 3\n", "1 - 3\n"), *sp_ctx),
        "sp's words swapped": (parse_sp_witness, _edit(sp, "INF INF -", "INF - INF"), *sp_ctx),
        "- in tree's num column": (
            parse_connectivity_witness, _edit(tree, "0 1\n", "0 -\n"), demo_graph
        ),
        "tree's root row swapped": (
            parse_connectivity_witness, _edit(tree, "- 0\n", "0 -\n"), demo_graph
        ),
        "4 + 2 tokens, graph": (parse_graph, _edit(graph, "0 1 1\n0 2 1\n", "0 1 1 0\n2 1\n")),
        "4 + 2 tokens, sp": (
            parse_sp_witness, _edit(sp, "0 0 -\n1 1 0\n", "0 0 - 1\n1 0\n"), *sp_ctx
        ),
        "3 + 1 tokens, tree": (
            parse_connectivity_witness, _edit(tree, "- 0\n0 1\n", "- 0 0\n1\n"), demo_graph
        ),
        "4 + 2 tokens, matching": (
            parse_matching_witness,
            _edit(matching, "0 1 0\n2 3 3\n", "0 1 0 2\n3 3\n"),
            twelve_graph,
        ),
        "non-ASCII digit, graph": (parse_graph, _edit(graph, "0 2 1\n", "0 2 ٣\n")),
        "non-ASCII digit, sp": (parse_sp_witness, _edit(sp, "1 2 3\n", "1 2 ٣\n"), *sp_ctx),
        "non-ASCII digit, labels": (
            parse_matching_witness, _edit(matching, " 2 0\n", " ٣ 0\n"), twelve_graph
        ),
    }


def _read_the_same_by_line(monkeypatch, cases: dict) -> dict:
    """Each case's outcome, which must not change when ``_in_bulk`` refuses
    every file; it does from here on."""
    got = {name: _outcome(*case) for name, case in cases.items()}
    monkeypatch.setattr(formats, "_in_bulk", lambda *args: None)
    for name, case in cases.items():
        assert got[name] == _outcome(*case), name
    return got


def test_misshapen_rows_read_as_by_line(
    monkeypatch, demo_graph, zero_cycle_graph, zero_cycle_cost, twelve_graph
):
    cases = _shape_cases(demo_graph, zero_cycle_graph, zero_cycle_cost, twelve_graph)
    got = _read_the_same_by_line(monkeypatch, cases)
    assert all(issubclass(outcome[0], ParseError) for outcome in got.values()), got


def test_a_bracket_row_is_refused_before_json(
    monkeypatch, demo_graph, zero_cycle_graph, zero_cycle_cost
):
    # json recurses into nested brackets; the shape check must keep them out.
    brackets = "[" * 10**5
    sp = _edit("sp_zero_cycle.sp", "1 1 0\n", f"{brackets} 1 0\n")
    cases = {
        "cut": (parse_connectivity_witness, f"cut 1\n{brackets}\n", demo_graph),
        "graph": (parse_graph, f"graph 5 1\n0 {brackets}\n"),
        "sp": (parse_sp_witness, sp, zero_cycle_graph, zero_cycle_cost),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a misshapen file")

    monkeypatch.setattr(json, "loads", refuse)
    layouts = {"cut": (formats._CUT,), "graph": (formats._EDGES[2],), "sp": (formats._SP, 5)}
    for name, (_, text, *_) in cases.items():
        assert formats._in_bulk(text, *layouts[name]) is None, name
    got = _read_the_same_by_line(monkeypatch, cases)
    assert all(outcome[0] is ParseError for outcome in got.values()), got


def test_a_huge_declared_row_count_allocates_nothing(monkeypatch, demo_graph, twelve_graph):
    import tracemalloc

    rows = 10**12
    matching = _edit("matching_12v.matching", "matching 5\n", f"matching {rows}\n")
    cases = {
        "graph": (parse_graph, f"graph 3 {rows}\n0 1\n1 2\n2 0\n"),
        "cut": (parse_connectivity_witness, f"cut {rows}\n0\n1\n2\n", demo_graph),
        "matching": (parse_matching_witness, matching, twelve_graph),
    }
    for name, case in cases.items():
        tracemalloc.start()
        try:
            outcome = _outcome(*case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome[0] is LengthMismatchError, (name, outcome)
        assert peak < 2**20, (name, peak)
    _read_the_same_by_line(monkeypatch, cases)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
def test_parse_graph_leaves_cyclic_gc_as_it_found_it(enabled):
    # parse_graph pauses cyclic GC while it builds the graph, and restores
    # the caller's state on every way out.
    texts = {
        "graph 2 1\n0 1\n": None,  # read in bulk
        "graph 2 1\n0  1\n": None,  # read by line
        "graph 2 1\n0 x\n": ParseError,
        "graph 2 1\n0 2\n": WellformednessError,
    }
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for text, error in texts.items():
            if error is None:
                assert parse_graph(text) == (Graph(2, [(0, 1)]), None)
            else:
                with pytest.raises(error):
                    parse_graph(text)
            assert gc.isenabled() == enabled, text
    finally:
        (gc.enable if was else gc.disable)()
