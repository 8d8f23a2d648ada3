"""How the benchmark runs one operation: one certify or one verify of one instance.

certify: read the input file, parse it, solve, serialize and write the
witness, then read it back, parse it and check it; the check must ACCEPT
and the answer must equal the instance's reference answer.

verify: a third-party verifier's work: read the graph file and a witness
file, parse both, check. Honest witnesses must be accepted, forged ones
rejected with the clause their construction fixes.

:class:`InProcess` calls the library and wraps each layer call in a span.
:class:`ThroughCli` runs each command in its own child interpreter, one at
a time, and judges its exit code and stdout line.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from certigraph import blossom, cli, connectivity, formats, gcd, matching, shortest_paths, solvers
from certigraph.graph import Graph

from workloads import Instance, unlimited_int_digits

CLI_BOOT = "import sys; from certigraph.cli import main; main()"
CHILD_TIMEOUT_S = 30
CLI_COMMANDS = {  # problem: (solve command, check command)
    "connectivity": ("solve-connected", "check-connected"),
    "sp": ("solve-sp", "check-sp"),
    "matching": ("solve-matching", "check-matching"),
    "gcd": ("solve-gcd", "check-gcd"),
}


@dataclass
class Op:
    kind: str  # "certify" or "verify"
    inst: Instance
    witness: Path  # the file checked (certify writes it first)
    clause: str | None  # the clause that must reject; None means ACCEPT
    argvs: list[list[str]] = field(default_factory=list)  # CLI commands, in order


@dataclass
class Outcome:
    failed: bool  # anything but the expected verdict, clause, answer, exit code and line
    wrong: bool  # the program gave a verdict or answer that contradicts the expected one
    clause: str | None = None  # the clause a rejection named
    error: str = ""


def plan(instances: list[Instance], through_cli: bool) -> list[Op]:
    ops = []
    for inst in instances:
        ops.append(Op("certify", inst, inst.out, None))
        ops.append(Op("verify", inst, inst.honest, None))
        ops += [Op("verify", inst, path, clause) for path, clause in inst.forged]
    if through_cli:
        for op in ops:
            op.argvs = _argvs(op)
    return ops


@dataclass(frozen=True)
class Steps:
    solve_span: str
    solve: Callable
    serialize: Callable
    parse: Callable
    check_span: str
    check: Callable
    answer: Callable  # the claim a parsed witness makes, comparable to Instance.answer


def _tree(w) -> bool:
    return isinstance(w, connectivity.SpanningTreeWitness)


STEPS = {
    "connectivity": Steps(
        "solvers.connectivity",
        lambda g, cost, source: solvers.solve_connectivity(g),
        formats.serialize_connectivity_witness,
        lambda text, g, cost: formats.parse_connectivity_witness(text, g),
        "connectivity.check",
        lambda g, w: connectivity.check_connectivity(connectivity.ConnectivityTriple(g, _tree(w), w)),
        _tree,
    ),
    "sp": Steps(
        "solvers.shortest_paths",
        solvers.solve_shortest_paths,
        formats.serialize_sp_witness,
        formats.parse_sp_witness,
        "shortest_paths.check",
        lambda g, w: shortest_paths.check_shortest_paths(shortest_paths.SpTriple(g, w)),
        lambda w: [d.value for d in w.dist],
    ),
    "matching": Steps(
        "solvers.max_matching",
        lambda g, cost, source: solvers.solve_max_matching(g),
        formats.serialize_matching_witness,
        lambda text, g, cost: formats.parse_matching_witness(text, g),
        "matching.check",
        lambda g, w: matching.check_max_matching(matching.MatchingTriple(g, w)),
        lambda w: w.matching.num_edges,
    ),
}


class InProcess:
    def execute(self, op: Op, t):
        inst, steps = op.inst, STEPS[op.inst.problem]
        with t.span("io.read"):
            text = inst.graph.read_text()
        with t.span("formats.parse_graph"):
            g, cost = formats.parse_graph(text)
        t.count("parsed_bytes", len(text))
        if op.kind == "certify":
            with t.span(steps.solve_span):
                result = steps.solve(g, cost, inst.source)
            with t.span("formats.serialize"):
                text = steps.serialize(result.witness)
            with t.span("io.write"):
                op.witness.write_text(text)
        with t.span("io.read"):
            text = op.witness.read_text()
        with t.span("formats.parse_witness"):
            w = steps.parse(text, g, cost)
        t.count("parsed_bytes", len(text))
        forged_sp = op.clause is not None and inst.problem == "sp"
        with t.span("shortest_paths.reject" if forged_sp else steps.check_span):
            verdict = steps.check(g, w)
        return verdict, w

    def judge(self, op: Op, raw) -> Outcome:
        verdict, w = raw
        got = None if verdict.accepted else verdict.clause
        if got != op.clause:
            return Outcome(True, True, got)
        if op.kind == "certify" and STEPS[op.inst.problem].answer(w) != op.inst.answer:
            return Outcome(True, True, got, f"{op.inst.name}: wrong answer")
        return Outcome(False, False, got)

    def probe(self, op: Op, t) -> None:
        """Sub-layer times, from separate calls outside the operation's span."""
        inst = op.inst
        g, cost = formats.parse_graph(inst.graph.read_text())
        with t.span("graph.build"):
            Graph(g.num_verts, g.edges)
        if op.kind == "certify" and inst.problem == "matching":
            with t.span("blossom.cover"):
                blossom.maximum_matching_with_cover(g)
        if inst.problem == "sp" and op.clause is None:
            w = formats.parse_sp_witness(op.witness.read_text(), g, cost)
            with t.span("shortest_paths.trian"):
                shortest_paths.check_trian(g, w)
            with t.span("shortest_paths.just"):
                shortest_paths.check_just(g, w)


def _argvs(op: Op) -> list[list[str]]:
    inst = op.inst
    solve, check = CLI_COMMANDS[inst.problem]
    if inst.problem == "gcd":
        with unlimited_int_digits():
            a, b = map(str, inst.operands)
        certify = [[solve, a, b, "-o", str(op.witness)], [check, str(op.witness)]]
        verify = [[check, str(op.witness)]]
    else:
        source = [str(inst.source)] if inst.problem == "sp" else []
        graph = str(inst.graph)
        certify = [[solve, graph, *source, "-o", str(op.witness)], [check, graph, str(op.witness)]]
        verify = [[check, graph, str(op.witness)]]
    return certify if op.kind == "certify" else verify


def child_env(src: Path) -> dict[str, str]:
    """The environment for a child interpreter that imports certigraph from ``src``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


class ThroughCli:
    def __init__(self, src: Path):
        self.env = child_env(src)

    def execute(self, op: Op, t) -> list[tuple[int, str, str]]:
        """(exit code, stdout, stderr) per command; stops after a failing one."""
        if op.kind == "certify":
            op.witness.unlink(missing_ok=True)
        runs = []
        for argv in op.argvs:
            with t.span("cli.roundtrip"):
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_BOOT, *argv],
                    capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
                )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
            if proc.returncode != 0:
                break
        return runs

    def judge(self, op: Op, runs: list[tuple[int, str, str]]) -> Outcome:
        line = "ACCEPT" if op.clause is None else f"REJECT: {op.clause}"
        want = [(0, "")] * (len(op.argvs) - 1) + [(0 if op.clause is None else 1, line + "\n")]
        code, out, err = runs[-1]
        verdict = out.rstrip("\n")
        got = verdict[len("REJECT: "):] if verdict.startswith("REJECT: ") else None
        said = verdict == "ACCEPT" or got is not None
        if [(c, o) for c, o, _ in runs] != want:
            why = out.strip() or (err.strip().splitlines() or [""])[-1]
            return Outcome(True, said, got, f"{op.inst.name}: exit {code}: {why[:120]}")
        if op.kind == "certify" and self._answer(op) != op.inst.answer:
            return Outcome(True, True, got, f"{op.inst.name}: wrong answer")
        return Outcome(False, False, got)

    @staticmethod
    def _answer(op: Op):
        inst = op.inst
        text = op.witness.read_text()
        if inst.problem == "gcd":
            with unlimited_int_digits():
                return int(text.split()[3])
        steps = STEPS[inst.problem]
        g, cost = formats.parse_graph(inst.graph.read_text())
        return steps.answer(steps.parse(text, g, cost))

    def probe(self, op: Op, t) -> None:
        """The same commands in process, and the gcd layers called directly."""
        for argv in op.argvs:
            sink = io.StringIO()
            with t.span("cli.main"):
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        cli.cli_main(argv)
                except Exception:
                    pass  # the child running the same argv already counted the failure
        inst = op.inst
        if inst.problem != "gcd":
            return
        a, b = inst.operands
        if op.kind == "certify":
            with t.span("solvers.gcd"):
                solvers.solve_gcd(a, b)
        else:
            with unlimited_int_digits():
                values = [int(x) for x in op.witness.read_text().split()[1:]]
            # check_gcd raises ValueError when it writes a rejection's
            # detail for numbers past the interpreter's digit limit.
            with t.span("gcd.check"), contextlib.suppress(ValueError):
                gcd.check_gcd(gcd.GcdTriple(*values))
