import subprocess
import sys
from pathlib import Path

from certigraph.cli import cli_main

from conftest import DATA


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
    gcd = str((DATA / "gcd_example.gcd").resolve())
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "certigraph", "check-gcd", gcd],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == run(capsys, "check-gcd", gcd) == (0, "ACCEPT\n")


def test_missing_file_exits_2(capsys, tmp_path):
    code, out = run(capsys, "check-gcd", str(tmp_path / "nope.gcd"))
    assert code == 2 and out.startswith("ERROR:")


def test_usage_errors_exit_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["check-gcd"]) == 2


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0


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
