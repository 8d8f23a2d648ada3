import contextlib
import functools
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from certigraph import solvers
from certigraph.cli import cli_main
from certigraph.graph import Graph
from certigraph.matching import has_no_duplicate_edges, has_no_self_loops

from conftest import DATA, SRC


def run(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_check_golden_instances(capsys):
    for args in [
        ("check-connected", DATA / "connected_5v.graph", DATA / "connected_5v.tree"),
        ("check-sp", DATA / "sp_zero_cycle.graph", DATA / "sp_zero_cycle.sp"),
        ("check-matching", DATA / "matching_12v.graph", DATA / "matching_12v.matching"),
        ("check-gcd", DATA / "gcd_example.gcd"),
    ]:
        code, out = run(capsys, args[0], *map(str, args[1:]))
        assert (code, out) == (0, "ACCEPT\n"), args[0]


def test_reject_names_the_clause(capsys, tmp_path):
    forged = (DATA / "sp_zero_cycle.sp").read_text().replace("1 1 1", "2 1 1")
    path = tmp_path / "forged.sp"
    path.write_text(forged)
    code, out = run(capsys, "check-sp", str(DATA / "sp_zero_cycle.graph"), str(path))
    assert (code, out) == (1, "REJECT: trian\n")


def test_reject_cut_that_is_no_cut(capsys, tmp_path):
    path = tmp_path / "bad.cut"
    path.write_text("cut 1\n4\n")
    code, out = run(capsys, "check-connected", str(DATA / "connected_5v.graph"), str(path))
    assert (code, out) == (1, "REJECT: cut\n")


def test_precondition_failures_exit_2(capsys, tmp_path):
    gcd = tmp_path / "both_zero.gcd"
    gcd.write_text("gcd 0 0 0 0 0\n")
    code, out = run(capsys, "check-gcd", str(gcd))
    assert code == 2 and out.startswith("ERROR:")

    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("graph 2 1\n0 5\n")
    code, out = run(capsys, "check-connected", str(bad_graph), str(DATA / "connected_5v.tree"))
    assert code == 2 and out.startswith("ERROR:")


def test_check_sp_requires_costs_when_edges_exist(capsys, tmp_path):
    code, out = run(
        capsys, "check-sp", str(DATA / "connected_5v.graph"), str(DATA / "sp_zero_cycle.sp")
    )
    assert code == 2 and "cost" in out

    graph = tmp_path / "pointless.graph"
    graph.write_text("graph 1 0\n")
    witness = tmp_path / "pointless.sp"
    witness.write_text("sp 0\n0 0 -\n")
    code, out = run(capsys, "check-sp", str(graph), str(witness))
    assert (code, out) == (0, "ACCEPT\n")


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "mangled.graph"
    path.write_text("graph 2 1\n0 one\n")
    code, out = run(capsys, "check-connected", str(path), str(DATA / "connected_5v.tree"))
    assert code == 2 and out.startswith("ERROR:")


def test_repeated_cut_vertex_exits_2(capsys, tmp_path):
    graph = tmp_path / "three.graph"
    graph.write_text("graph 3 1\n0 1\n")
    cut = tmp_path / "repeat.cut"
    cut.write_text("cut 2\n2\n2\n")
    code, out = run(capsys, "check-connected", str(graph), str(cut))
    assert code == 2 and out.startswith("ERROR:")


def test_undecodable_files_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.bytes"
    bad.write_bytes(b"graph 2 1\n0 \xff\n")
    code, out = run(capsys, "check-connected", str(bad), str(DATA / "connected_5v.tree"))
    assert code == 2 and out.startswith("ERROR:")
    code, out = run(capsys, "check-connected", str(DATA / "connected_5v.graph"), str(bad))
    assert code == 2 and out.startswith("ERROR:")


def test_python_m_runs_the_cli(capsys):
    gcd = str(DATA / "gcd_example.gcd")
    proc = subprocess.run(
        [sys.executable, "-m", "certigraph", "check-gcd", gcd],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == run(capsys, "check-gcd", gcd) == (0, "ACCEPT\n")


def test_missing_file_exits_2(capsys, tmp_path):
    code, out = run(capsys, "check-gcd", str(tmp_path / "nope.gcd"))
    assert code == 2 and out.startswith("ERROR:")


def test_usage_errors_exit_2(capsys):
    graph = str(DATA / "sp_zero_cycle.graph")
    for argv in (
        ["frobnicate"], [], ["check-gcd"], ["solve-sp", graph, "x"], ["solve-gcd", "1", "x"],
        ["check-sp", graph],
    ):
        assert run(capsys, *argv) == (2, ""), argv


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0


@pytest.mark.parametrize(
    "command, operands",
    [
        ("check-connected", "graph_file witness_file"),
        ("check-sp", "graph_file witness_file"),
        ("check-matching", "graph_file witness_file"),
        ("check-gcd", "gcd_file"),
        ("solve-connected", "[-o OUTPUT] graph_file"),
        ("solve-sp", "[-o OUTPUT] graph_file source"),
        ("solve-matching", "[-o OUTPUT] graph_file"),
        ("solve-gcd", "[-o OUTPUT] a b"),
    ],
)
def test_help_gives_each_commands_usage_line(capsys, monkeypatch, command, operands):
    # Only the usage line: the options heading differs between Python 3.10 and 3.11.
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run(capsys, command, "--help")
    assert (code, out.splitlines()[0]) == (0, f"usage: certigraph {command} [-h] {operands}")


def test_solve_sp_matches_golden_witness(capsys, tmp_path):
    out_file = tmp_path / "solved.sp"
    code, _ = run(capsys, "solve-sp", str(DATA / "sp_zero_cycle.graph"), "0", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text() == (DATA / "sp_zero_cycle.sp").read_text()


def test_solve_writes_stdout_without_output_flag(capsys):
    code, out = run(capsys, "solve-gcd", "240", "46")
    assert (code, out) == (0, "gcd 240 46 2 -9 47\n")


def test_solve_gcd_rejects_bad_inputs(capsys):
    code, out = run(capsys, "solve-gcd", "0", "0")
    assert code == 2 and out.startswith("ERROR:")


def test_solve_then_check_pipelines(capsys, tmp_path):
    # Each solver's file output must pass its own checker via the CLI.
    pipelines = [
        ("solve-connected", ["check-connected"], DATA / "connected_5v.graph", []),
        ("solve-sp", ["check-sp"], DATA / "sp_zero_cycle.graph", ["0"]),
        ("solve-matching", ["check-matching"], DATA / "matching_12v.graph", []),
    ]
    for solve_cmd, check_cmd, graph, extra in pipelines:
        out_file = tmp_path / f"{solve_cmd}.witness"
        code, _ = run(capsys, solve_cmd, str(graph), *extra, "-o", str(out_file))
        assert code == 0
        code, out = run(capsys, *check_cmd, str(graph), str(out_file))
        assert (code, out) == (0, "ACCEPT\n"), solve_cmd


def test_solve_connected_emits_cut_for_disconnected_input(capsys, tmp_path):
    graph = tmp_path / "two_islands.graph"
    graph.write_text("graph 4 2\n0 1\n2 3\n")
    witness = tmp_path / "two_islands.cut"
    code, _ = run(capsys, "solve-connected", str(graph), "-o", str(witness))
    assert code == 0
    assert witness.read_text() == "cut 2\n0\n1\n"
    code, out = run(capsys, "check-connected", str(graph), str(witness))
    assert (code, out) == (0, "ACCEPT\n")


def test_solve_sp_defaults_to_unit_costs(capsys, tmp_path):
    graph = tmp_path / "unit.graph"
    graph.write_text("graph 3 2\n0 1\n1 2\n")
    code, out = run(capsys, "solve-sp", str(graph), "0")
    assert code == 0
    assert out == "sp 0\n0 0 -\n1 1 0\n2 2 1\n"


def test_solve_sp_rejects_bad_source(capsys):
    code, out = run(capsys, "solve-sp", str(DATA / "sp_zero_cycle.graph"), "9")
    assert code == 2 and out.startswith("ERROR:")


def test_ten_thousand_digit_cost_round_trips(capsys, tmp_path):
    # Past the interpreter's int/str digit limit, which the CLI leaves alone.
    cost = "3" + "0" * 9999
    graph = tmp_path / "huge.graph"
    graph.write_text(f"graph 3 3\n0 1 {cost}\n1 2 1\n0 2 {cost}2\n")
    witness = tmp_path / "huge.sp"
    code, out = run(capsys, "solve-sp", str(graph), "0", "-o", str(witness))
    assert (code, out) == (0, "")
    assert witness.read_text() == f"sp 0\n0 0 -\n{cost} 1 0\n{cost[:-1]}1 2 1\n"
    code, out = run(capsys, "check-sp", str(graph), str(witness))
    assert (code, out) == (0, "ACCEPT\n")
    witness.write_text(f"sp 0\n0 0 -\n{cost} 1 0\n{cost[:-1]}2 2 1\n")
    code, out = run(capsys, "check-sp", str(graph), str(witness))
    assert (code, out) == (1, "REJECT: trian\n")


def test_check_gcd_reads_a_5001_digit_line(capsys, tmp_path):
    a = "1" + "0" * 5000
    line = tmp_path / "huge.gcd"
    line.write_text(f"gcd {a} {a[:-1]}1 1 -1 1\n")  # -a + (a + 1) = 1
    code, out = run(capsys, "check-gcd", str(line))
    assert (code, out) == (0, "ACCEPT\n")
    line.write_text(f"gcd {a} {a[:-1]}1 1 1 -1\n")
    code, out = run(capsys, "check-gcd", str(line))
    assert (code, out) == (1, "REJECT: combination\n")


def test_5001_digit_root_and_source_are_no_crash(capsys, tmp_path):
    # Rejection details and error messages must not write such numbers in full.
    huge = "9" * 5001
    tree = tmp_path / "huge.tree"
    tree.write_text(f"tree {huge}\n" + "- 0\n" * 5)
    code, out = run(capsys, "check-connected", str(DATA / "connected_5v.graph"), str(tree))
    assert (code, out) == (1, "REJECT: r\n")
    sp = tmp_path / "huge.sp"
    sp.write_text(f"sp {huge}\n" + "0 0 -\n" * 5)
    code, out = run(capsys, "check-sp", str(DATA / "sp_zero_cycle.graph"), str(sp))
    assert (code, out) == (2, "ERROR: source: source <16613-bit integer> is not a vertex\n")


def test_5000_digit_repeated_cut_vertex_exits_2(capsys, tmp_path):
    huge = "9" * 5000
    graph = tmp_path / "three.graph"
    graph.write_text("graph 3 1\n0 1\n")
    cut = tmp_path / "repeat.cut"
    cut.write_text(f"cut 2\n{huge}\n{huge}\n")
    code, out = run(capsys, "check-connected", str(graph), str(cut))
    assert (code, out) == (2, f"ERROR: line 3: vertex {huge} repeats in the cut\n")


def test_5000_digit_vertex_count_in_a_label_error_exits_2(capsys, tmp_path):
    huge = "9" * 5000
    graph = tmp_path / "huge.graph"
    graph.write_text(f"graph {huge} 0\n")
    witness = tmp_path / "short.matching"
    witness.write_text("matching 0\n0 0\n")
    code, out = run(capsys, "check-matching", str(graph), str(witness))
    assert (code, out) == (2, f"ERROR: line 2: expected {huge} labels, found 2\n")


def test_unexpected_exception_exits_3_without_traceback(capsys, monkeypatch):
    def out_of_memory(g):
        raise MemoryError("no room for the vertices")

    monkeypatch.setattr(solvers, "solve_connectivity", out_of_memory)
    code = cli_main(["solve-connected", str(DATA / "connected_5v.graph")])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "certigraph: internal error: MemoryError: no room for the vertices\n"


# The child caps its own address space, so a solver that allocated per-vertex
# lists before refusing the vertex count would exit 3 with a MemoryError.
LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from certigraph.cli import cli_main
sys.exit(cli_main(sys.argv[1:]))
"""


def test_vertex_count_past_the_limit_exits_2(tmp_path):
    graph = tmp_path / "huge.graph"
    graph.write_text("graph 100000000000000000000 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CHILD, "solve-connected", str(graph)],
        cwd=SRC, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout == "ERROR: vertex_limit: 100000000000000000000 vertices exceed 2^31 - 1\n"


PROBLEM_MODULES = {"connectivity", "shortest_paths", "matching", "gcd"}
NEVER_FOR_CHECKS = {"solvers", "blossom", "oracles"}
LOADED = """
import contextlib, io, pathlib, sys
from certigraph.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_main(sys.argv[1:]) if len(sys.argv) > 1 else 0
mine = [m for n, m in sys.modules.items() if n == "certigraph" or n.startswith("certigraph.")]
lines = sum(pathlib.Path(m.__file__).read_bytes().count(b"\\n") for m in mine)
print(code, lines, *sorted(m for m in sys.modules if m.startswith("certigraph.")))
"""


def fresh_run(*argv: str) -> tuple[set[str], int]:
    """The certigraph submodules a fresh interpreter holds after ``argv``, and
    the lines of all the certigraph modules it loaded, the package included."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    code, lines, *modules = proc.stdout.split() or ["no output", "0"]
    assert code == "0", (argv, proc.stderr)  # the command ran to the end
    return {name.removeprefix("certigraph.") for name in modules}, int(lines)


def test_importing_the_cli_loads_no_problem_module():
    # Nor any reader: the benchmark's setup_s times this import.
    assert fresh_run()[0] == {"cli", "record", "verdict"}


CHECK_RUNS = [
    ("check-connected", "connectivity", ["connected_5v.graph", "connected_5v.tree"]),
    ("check-sp", "shortest_paths", ["sp_zero_cycle.graph", "sp_zero_cycle.sp"]),
    ("check-matching", "matching", ["matching_12v.graph", "matching_12v.matching"]),
    ("check-gcd", "gcd", ["gcd_example.gcd"]),
]


@pytest.mark.parametrize("command, problem, files", CHECK_RUNS)
def test_check_loads_only_its_own_checker(command, problem, files):
    loaded, _ = fresh_run(command, *(str(DATA / f) for f in files))
    assert loaded & NEVER_FOR_CHECKS == set()
    assert loaded & PROBLEM_MODULES == {problem}


@pytest.mark.parametrize(
    "argv", [("check-gcd", str(DATA / "gcd_example.gcd")), ("solve-gcd", "240", "46")]
)
def test_gcd_commands_load_no_graph_code(argv):
    assert fresh_run(*argv)[0] & {"formats", "graph"} == set()


# Lines of certigraph code each check command loads on tests/data, as last measured.
TRUSTED_BASE = {"check-connected": 847, "check-sp": 879, "check-matching": 880, "check-gcd": 433}


@pytest.mark.parametrize("command, problem, files", CHECK_RUNS)
def test_trusted_base_stays_within_its_pinned_size(command, problem, files):
    """The certigraph lines a ``check-*`` process loads are what a user must
    trust for its verdict, so each command's total is pinned from above. A
    change that raises a bound must state the new bound and why in CHANGES.md."""
    _, lines = fresh_run(command, *(str(DATA / f) for f in files))
    assert lines <= TRUSTED_BASE[command]


JSON_LOADED = """
import contextlib, io, sys
from certigraph.cli import cli_main
print("json" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(sys.argv[1:])
print("json" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, files, after",
    [
        ("check-gcd", ["gcd_example.gcd"], "False"),
        ("check-sp", ["sp_zero_cycle.graph", "sp_zero_cycle.sp"], "True"),
    ],
)
def test_json_is_loaded_only_by_the_bulk_reader(command, files, after):
    """The benchmark's ``setup_s`` times ``import certigraph.cli``, so the
    bulk reader imports ``json`` when it runs; a gcd check never does."""
    proc = subprocess.run(
        [sys.executable, "-c", JSON_LOADED, command, *(str(DATA / f) for f in files)],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.split() == ["False", after], proc.stderr


SOLVE_RUNS = [
    ("solve-connected", "connectivity", [str(DATA / "connected_5v.graph")]),
    ("solve-sp", "shortest_paths", [str(DATA / "sp_zero_cycle.graph"), "0"]),
    ("solve-matching", "matching", [str(DATA / "matching_12v.graph")]),
    ("solve-gcd", "gcd", ["240", "46"]),
]


@pytest.mark.parametrize("command, problem, args", SOLVE_RUNS)
def test_solve_loads_only_its_own_solver(tmp_path, command, problem, args):
    loaded, _ = fresh_run(command, *args, "-o", str(tmp_path / "witness"))
    assert "solvers" in loaded and "oracles" not in loaded
    assert ("blossom" in loaded) == (command == "solve-matching")
    assert loaded & PROBLEM_MODULES == {problem}


TYPING_LOADED = """
import contextlib, io, sys
from certigraph.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_main(sys.argv[1:])
print(code, "typing" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, files",
    [("check-sp", ["sp_zero_cycle.graph", "sp_zero_cycle.sp"]), ("check-gcd", ["gcd_example.gcd"])],
)
def test_check_loads_no_typing(command, files):
    """Annotations name ``typing`` only for type checkers: importing it would
    cost a check process a few ms. Run without ``site`` (``-S``), whose own
    start-up may import it."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", TYPING_LOADED, command, *(str(DATA / f) for f in files)],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr


INTROSPECTION = ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize")
INTROSPECTION_LOADED = f"""
import contextlib, io, sys
from certigraph.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *[name for name in {INTROSPECTION!r} if name in sys.modules])
"""
EVERY_COMMAND = [
    (),
    *((command, *(str(DATA / f) for f in files)) for command, _, files in CHECK_RUNS),
    *((command, *args) for command, _, args in SOLVE_RUNS),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0] if argv else "import")
def test_no_command_loads_the_introspection_modules(argv):
    """``dataclasses`` imports ``inspect``, which brings ``ast``, ``dis`` and
    ``tokenize``: about 9,000 stdlib lines compiled or unmarshalled in each
    child. The records need none of them, and annotations name ``typing``
    only for type checkers. ``-S`` keeps ``site`` and a host's ``.pth``
    files from preloading any module."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", INTROSPECTION_LOADED, *argv],
        cwd=SRC, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.split() == ["0"], proc.stderr


# The REJECT column of the README's clause table, one row per check command.
REJECT_CLAUSES = {
    "check-connected": {"witness_shape", "r", "parent_num", "cut"},
    "check-sp": {"witness_shape", "start_val", "no_path", "trian", "just"},
    "check-matching": {"witness_shape", "subset", "matching", "osc", "cardinality"},
    "check-gcd": {"g_nonneg", "divides_a", "divides_b", "combination"},
}


@functools.cache
def valid_cases() -> dict[str, list[tuple[str, str]]]:
    """Serialized (graph file, witness file) pairs each check command accepts."""
    from certigraph import formats
    from certigraph.solvers import solve_connectivity, solve_max_matching, solve_shortest_paths

    names = ("connected_5v.graph", "sp_zero_cycle.graph", "matching_12v.graph")
    graphs = [formats.parse_graph((DATA / name).read_text()) for name in names]
    graphs.append((Graph(6, [(0, 1), (2, 3), (3, 4), (4, 2)]), (2, 0, 1, 0)))
    cases: dict[str, list[tuple[str, str]]] = {c: [] for c in REJECT_CLAUSES}
    for g, cost in graphs:
        cost = cost or tuple(i % 3 for i in range(g.num_edges))
        plain, costed = formats.serialize_graph(g), formats.serialize_graph(g, cost)
        cases["check-connected"].append(
            (plain, formats.serialize_connectivity_witness(solve_connectivity(g).witness)))
        cases["check-sp"].append(
            (costed, formats.serialize_sp_witness(solve_shortest_paths(g, cost, 0).witness)))
        if has_no_self_loops(g) and has_no_duplicate_edges(g):
            cases["check-matching"].append(
                (costed, formats.serialize_matching_witness(solve_max_matching(g).witness)))
    # check-gcd reads no graph; its graph file is only for the solve commands.
    cases["check-gcd"] = [(plain, (DATA / "gcd_example.gcd").read_text()),
                          (costed, "gcd 240 46 2 -9 47\n")]
    return cases


SMALL = st.integers(0, 9).map(str)  # most often a value the file can hold
TOKENS = st.one_of(
    SMALL,
    SMALL,
    st.integers(-3, 60).map(str),
    st.sampled_from(["-", "INF", "inf", "+1", "-0", "00", "1e3", "0x1", "٣", "１", "é"]),
    st.sampled_from(["graph", "tree", "cut", "sp", "matching", "gcd", ""]),
    st.sampled_from(["9" * 5000, "-" + "7" * 5000, "1" + "0" * 5000]),
    st.text(max_size=3),
)
HUGE_N = st.sampled_from([str(2**31), str(10**20), "9" * 5000])  # past vertex_limit


@st.composite
def mutated(draw, text: str) -> bytes:
    """``text`` with tokens, lines, a graph's n, separators, line ends and bytes changed."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["token"] * 3 + ["insert", "delete", "blank", "repeat"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(st.lists(TOKENS, max_size=4)))
        elif op == "token":
            j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            lines[i][j : j + 1] = [draw(TOKENS)]  # a blank line gains its first token
        elif op == "delete":
            del lines[i]
        elif op == "blank":
            lines.insert(i, [])
        else:
            lines.insert(i, list(lines[i]))
    if lines and lines[0][:1] == ["graph"] and draw(st.integers(0, 5)) == 0:
        lines[0][1:2] = [draw(HUGE_N)]  # so the solvers meet vertex_limit
    sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    data = "".join(sep.join(row) + end for row in lines).encode()
    if draw(st.integers(0, 5)) == 0:  # cut off
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 5)) == 0:  # bytes that are no UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


def run_quietly(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def declared_vertices(data: bytes) -> int:
    """The vertex count a graph file declares, or 0 if it does not parse."""
    from certigraph import formats
    from certigraph.verdict import ParseError, PreconditionError

    try:
        return formats.parse_graph(data.decode("utf-8"))[0].num_verts
    except (ParseError, PreconditionError, UnicodeDecodeError):
        return 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REJECT_CLAUSES)), st.data(), st.integers(-2, 60))
def test_every_command_on_mutated_files_exits_as_documented(command, data, source):
    graph_text, witness_text = data.draw(st.sampled_from(valid_cases()[command]), label="case")
    changed = data.draw(st.sampled_from(["witness", "witness", "graph", "both"]), label="changed")
    graph, witness = graph_text.encode(), witness_text.encode()
    if changed != "witness":
        graph = data.draw(mutated(graph_text), label="graph")
    if changed != "graph":
        witness = data.draw(mutated(witness_text), label="witness")
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, witness_file, out = (str(Path(tmp) / n) for n in ("g", "w", "out"))
        Path(graph_file).write_bytes(graph)
        Path(witness_file).write_bytes(witness)
        files = [witness_file] if command == "check-gcd" else [graph_file, witness_file]
        code, stdout, stderr = run_quietly(command, *files)
        event(f"{command} exit {code}")
        assert stderr == ""
        if code == 0:
            assert stdout == "ACCEPT\n"
        elif code == 1:
            assert stdout.startswith("REJECT: ") and stdout.endswith("\n")
            assert stdout[len("REJECT: "):-1] in REJECT_CLAUSES[command]
        else:
            assert code == 2
            assert stdout.startswith("ERROR: ") and stdout.count("\n") == 1
        # A declared n from 51 up to 2^31 - 1 would let the solvers allocate without
        # bound; past that they refuse with vertex_limit before allocating.
        n = declared_vertices(graph)
        if 50 < n <= 2**31 - 1:
            return
        if n > 50:
            event("solvers on n past the limit")
        for argv in (
            ["solve-connected", graph_file],
            ["solve-sp", graph_file, str(source)],
            ["solve-matching", graph_file],
        ):
            code, stdout, stderr = run_quietly(*argv, "-o", out)
            assert stderr == ""
            assert (code, stdout) == (0, "") or (
                code == 2 and stdout.startswith("ERROR: ") and stdout.count("\n") == 1
            )
