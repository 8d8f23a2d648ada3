"""Time each layer of the four problems at fixed seeds and sizes; write BENCH_<sha>.json.

    python tools/bench_layers.py          # full sizes, writes BENCH_<sha>.json at the repo root
    python tools/bench_layers.py --tiny   # tiny sizes: checks the JSON schema, writes nothing

Layers: serialize, read and parse the input file, build ``Graph`` from
ready pairs, solve, serialize, read and parse the witness, check. Inputs:

* connectivity and sp: one random multigraph, n = 1e5, m = 5e5, costs in
  [0, 100), source 0;
* matching: random simple graphs with m = 3n at n = 16000 and n = 64000;
* gcd: operands of 10^4 digits.

Each layer is timed ``REPEATS`` times; the file keeps every run and the
median, so the spread over repeats shows. It also records the line events
(``tests/helpers.line_events``) of each solver and checker at two sizes,
which repeat exactly, unlike the timings. The file names the commit it
measured: ``sha`` is HEAD's, and ``dirty`` says whether ``src/`` differs
from it. The script reads the package from the ``src/`` beside it, so a
checkout of another commit measures that commit's code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from certigraph import formats  # noqa: E402
from certigraph.connectivity import ConnectivityTriple, check_connectivity  # noqa: E402
from certigraph.gcd import GcdTriple, check_gcd, parse_gcd_line, serialize_gcd  # noqa: E402
from certigraph.graph import Graph  # noqa: E402
from certigraph.matching import MatchingTriple, check_max_matching  # noqa: E402
from certigraph.shortest_paths import SpTriple, check_shortest_paths  # noqa: E402
from certigraph.solvers import (  # noqa: E402
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)
from helpers import line_events  # noqa: E402
from test_cost_pins import random_graph  # noqa: E402  (simple, m = 3n: the matching pin's graphs)

REPEATS = 5
SIZES = {  # full, tiny
    "graph": ((10**5, 5 * 10**5), (200, 1000)),  # (n, m) for connectivity and sp
    "matching": ((16000, 64000), (100, 400)),
    "gcd_digits": (10**4, 50),
    "line_events": ((1000, 4000), (50, 200)),  # (s, 4s) for every solver and checker
}
GRAPH_LAYERS = (
    "serialize_graph", "read_graph", "parse_graph", "build_graph",
    "solve", "serialize_witness", "read_witness", "parse_witness", "check",
)
GCD_LAYERS = ("solve", "serialize_witness", "read_witness", "parse_witness", "check")
COUNTED = (
    "solve_connectivity", "check_connectivity", "solve_shortest_paths",
    "check_shortest_paths", "solve_max_matching", "check_max_matching", "solve_gcd", "check_gcd",
)


def multigraph(n: int, m: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return Graph(n, edges), tuple(rng.randrange(100) for _ in range(m))


def gcd_operands(digits: int, seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return tuple(rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))


def timed(runs: dict[str, list[float]], layer: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    runs.setdefault(layer, []).append(time.perf_counter() - start)
    return result


def graph_pass(runs, work: Path, g: Graph, cost, solve, serialize, parse, check) -> None:
    """One repeat of every layer of a graph problem; the check must accept."""
    path = work / "input"
    text = timed(runs, "serialize_graph", formats.serialize_graph, g, cost)
    path.write_text(text)
    text = timed(runs, "read_graph", path.read_text)
    g2, cost2 = timed(runs, "parse_graph", formats.parse_graph, text)
    assert g2 == g, "parse_graph changed the graph"
    timed(runs, "build_graph", Graph, g.num_verts, g.edges)
    res = timed(runs, "solve", solve, g, cost2)
    text = timed(runs, "serialize_witness", serialize, res.witness)
    path.write_text(text)
    text = timed(runs, "read_witness", path.read_text)
    w = timed(runs, "parse_witness", parse, text, g, cost)
    verdict = timed(runs, "check", check, g, res, w)
    assert verdict.accepted, verdict


def gcd_pass(runs, work: Path, a: int, b: int) -> None:
    path = work / "gcd"
    res = timed(runs, "solve", solve_gcd, a, b)
    text = timed(runs, "serialize_witness", serialize_gcd, GcdTriple(a, b, res.output, *res.witness))
    path.write_text(text)
    text = timed(runs, "read_witness", path.read_text)
    t = timed(runs, "parse_witness", parse_gcd_line, text)
    verdict = timed(runs, "check", check_gcd, t)
    assert verdict.accepted, verdict


PROBLEMS = {  # solve, serialize, parse, check, each as graph_pass calls it
    "connectivity": (
        lambda g, cost: solve_connectivity(g),
        formats.serialize_connectivity_witness,
        lambda text, g, cost: formats.parse_connectivity_witness(text, g),
        lambda g, res, w: check_connectivity(ConnectivityTriple(g, res.output, w)),
    ),
    "sp": (
        lambda g, cost: solve_shortest_paths(g, cost, 0),
        formats.serialize_sp_witness,
        formats.parse_sp_witness,
        lambda g, res, w: check_shortest_paths(SpTriple(g, w)),
    ),
    "matching": (
        lambda g, cost: solve_max_matching(g),
        formats.serialize_matching_witness,
        lambda text, g, cost: formats.parse_matching_witness(text, g),
        lambda g, res, w: check_max_matching(MatchingTriple(g, w)),
    ),
}


def layer_timings(tiny: bool, repeats: int) -> dict[str, dict[str, dict]]:
    n, m = SIZES["graph"][tiny]
    g, cost = multigraph(n, m, 1)
    cases = [
        (f"connectivity n={n} m={m}", "connectivity", g, None),
        (f"sp n={n} m={m}", "sp", g, cost),
    ]
    cases += [
        (f"matching n={k} m={3 * k}", "matching", random_graph(k, 1), None)
        for k in SIZES["matching"][tiny]
    ]
    digits = SIZES["gcd_digits"][tiny]
    a, b = gcd_operands(digits, 1)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, problem, graph, costs in cases:
            runs: dict[str, list[float]] = {}
            for _ in range(repeats):
                graph_pass(runs, Path(tmp), graph, costs, *PROBLEMS[problem])
            out[name] = summary(runs)
        runs = {}
        for _ in range(repeats):
            gcd_pass(runs, Path(tmp), a, b)
        out[f"gcd digits={digits}"] = summary(runs)
    return out


def summary(runs: dict[str, list[float]]) -> dict[str, dict]:
    return {
        layer: {"median_s": statistics.median(times), "runs_s": times}
        for layer, times in runs.items()
    }


def line_event_counts(tiny: bool) -> dict[str, dict]:
    """Line events of each solver and checker at sizes s and 4s, one seed each."""
    out = {}
    for s in SIZES["line_events"][tiny]:
        g, cost = multigraph(s, 5 * s, 2)
        gm = random_graph(s, 2)
        a, b = gcd_operands(s, 2)
        counts = {}
        counts["solve_connectivity"], conn = line_events(solve_connectivity, g)
        counts["check_connectivity"], _ = line_events(
            check_connectivity, ConnectivityTriple(g, conn.output, conn.witness)
        )
        counts["solve_shortest_paths"], sp = line_events(solve_shortest_paths, g, cost, 0)
        counts["check_shortest_paths"], _ = line_events(check_shortest_paths, SpTriple(g, sp.witness))
        counts["solve_max_matching"], mm = line_events(solve_max_matching, gm)
        counts["check_max_matching"], _ = line_events(check_max_matching, MatchingTriple(gm, mm.witness))
        counts["solve_gcd"], gcd = line_events(solve_gcd, a, b)
        counts["check_gcd"], _ = line_events(check_gcd, GcdTriple(a, b, gcd.output, *gcd.witness))
        for fn, count in counts.items():
            out.setdefault(fn, {"sizes": [], "events": []})
            out[fn]["sizes"].append(s)
            out[fn]["events"].append(count)
    for entry in out.values():
        entry["ratio"] = entry["events"][1] / entry["events"][0]
    return out


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def check_schema(doc: dict, repeats: int) -> None:
    """Raise ValueError unless ``doc`` has every field this script writes, well typed."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH schema: {what}")

    need(set(doc) == {"sha", "dirty", "host", "python", "repeats", "layers", "line_events"}, "keys")
    need(isinstance(doc["sha"], str) and doc["sha"] != "", "sha")
    need(isinstance(doc["dirty"], bool), "dirty")
    need(set(doc["host"]) == {"platform", "machine", "cpus"}, "host")
    need(doc["python"] == platform.python_version(), "python")
    need(doc["repeats"] == repeats, "repeats")
    kinds = [name.split(" ")[0] for name in doc["layers"]]
    need(kinds == ["connectivity", "sp", "matching", "matching", "gcd"], "problems")
    for name, layers in doc["layers"].items():
        need(tuple(layers) == (GCD_LAYERS if name.startswith("gcd") else GRAPH_LAYERS), name)
        for layer, t in layers.items():
            runs = t["runs_s"]
            need(len(runs) == repeats and all(isinstance(x, float) and x >= 0 for x in runs), layer)
            need(t["median_s"] == statistics.median(runs), layer)
    need(tuple(doc["line_events"]) == COUNTED, "line event functions")
    for fn, entry in doc["line_events"].items():
        s, big = entry["sizes"]
        need(big == 4 * s and all(isinstance(c, int) and c > 0 for c in entry["events"]), fn)
        need(entry["ratio"] == entry["events"][1] / entry["events"][0], fn)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes, one repeat; check the schema, write nothing"
    )
    tiny = parser.parse_args().tiny
    repeats = 1 if tiny else REPEATS
    try:
        sha, dirty = git("rev-parse", "--short", "HEAD"), bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):  # not a git checkout
        sha, dirty = "unknown", True
    doc = {
        "sha": sha,
        "dirty": dirty,
        "host": {"platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "repeats": repeats,
        "layers": layer_timings(tiny, repeats),
        "line_events": line_event_counts(tiny),
    }
    text = json.dumps(doc, indent=1) + "\n"
    check_schema(json.loads(text), repeats)
    if tiny:
        print(f"schema ok: {len(doc['layers'])} inputs, {len(doc['line_events'])} counted functions")
        return
    out = ROOT / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    out.write_text(text)
    for name, layers in doc["layers"].items():
        print(name, " ".join(f"{layer}={t['median_s']:.4f}" for layer, t in layers.items()))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
