"""Benchmark of certigraph's certifying pipeline, one workload per process.

    python3 bench/run.py --workload sparse-paths --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run writes the workload's seeded input files under
``.bench_work/``, then repeats passes over its operations (one certify or
one verify of one instance each, closed loop, one at a time) until
``--seconds`` have passed, and prints one ``name = value unit`` line per
metric followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` passes alternate between untraced and
traced; the metrics are per-layer self times and counts from the traced
passes, plus the tracing overhead against the untraced ones, and the
spans are written to ``.bench_work/traces/``.

``correct`` is false when the program returned a wrong verdict, clause or
answer. ``failed`` also counts operations that ended in an error, an
exception or a wrong exit code without giving a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import OFF, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sparse-paths", "matching-families", "cli-mixed")
IMPORT_RUNS = 15
IMPORT_BOOT = (
    "import time; t = time.perf_counter(); import certigraph.cli; "
    "print(time.perf_counter() - t)"
)
PERCENTILES = (50, 90, 99, 99.9)
FORGED_CLAUSES = ("just", "trian", "parent_num", "subset", "combination")

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = (
    "io.read", "io.write",
    "formats.parse_graph", "formats.parse_witness", "formats.serialize", "graph.build",
    "solvers.connectivity", "solvers.shortest_paths", "solvers.max_matching", "solvers.gcd",
    "blossom.cover",
    "connectivity.check",
    "shortest_paths.check", "shortest_paths.trian", "shortest_paths.just", "shortest_paths.reject",
    "matching.check", "gcd.check", "cli.main",
)
RATIOS = {  # ratio metric: (checker span, solver span), both inside certify operations
    "shortest_paths.check_over_solve": ("shortest_paths.check", "solvers.shortest_paths"),
    "connectivity.check_over_solve": ("connectivity.check", "solvers.connectivity"),
    "matching.check_over_solve": ("matching.check", "solvers.max_matching"),
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "cli.spawn_s": "s",
    "formats.parse_mb_per_s": "MB/s",
    **{name: "ratio" for name in RATIOS},
    "blossom.free_vertices": "count",
    "blossom.cover_labels": "count",
    "gcd.operand_digits": "count",
    **{f"verdict.rejects.{c}": "count" for c in FORGED_CLAUSES},
    "ops": "count",
    "op_tail_pct": "%",
    "failed_share": "share",
    "trace.overhead_share": "share",
    "trace.unaccounted_share": "share",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the self-check only")
    args = parser.parse_args(argv)
    if not (SRC / "certigraph" / "cli.py").is_file():
        print(f"no certigraph sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline
    import workloads

    through_cli = args.workload == "cli-mixed"
    runner = pipeline.ThroughCli(SRC) if through_cli else pipeline.InProcess()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = import_seconds(pipeline.child_env(SRC))
        instances = workloads.build(args.workload, args.seed, work, args.size)
        ops = pipeline.plan(instances, through_cli)
        passes = measure(ops, runner, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"the program failed while setting up the inputs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for _, records, _ in passes for _, _, o in records]
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        if o.failed:
            said = "ACCEPT" if o.clause is None else f"REJECT: {o.clause}"
            print(f"first failed operation: {o.error or 'the program said ' + said}", file=sys.stderr)
            break
    who = resource.RUSAGE_CHILDREN if through_cli else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    latencies = sorted(lat for traced, records, _ in passes if not traced for _, lat, _ in records)
    tail_pct, tail_s = tail(latencies)
    if args.trace:
        metrics, units = layer_metrics(passes, instances, outcomes, tail_pct), PER_LAYER
        write_trace(passes, args.workload, args.seed)
    else:
        metrics, units = {
            "setup_s": setup_s,
            "certify_s": pass_median(passes, "certify"),
            "verify_s": pass_median(passes, "verify"),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_mb,
        }, END_TO_END
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, {len(outcomes)} operations, "
          f"op_tail_s is p{tail_pct:g} of {len(latencies)} untraced operations")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def import_seconds(env: dict[str, str]) -> float:
    """Median in-child time to import the CLI module in a fresh interpreter.

    Timed inside the child, because spawn-to-exit time is about twice as
    noisy. The first child is not counted: it may write bytecode caches.
    """
    def once() -> float:
        proc = subprocess.run([sys.executable, "-c", IMPORT_BOOT], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(proc.stdout)

    once()
    return statistics.median(once() for _ in range(IMPORT_RUNS))


def measure(ops, runner, seconds: float, trace: bool):
    """Whole passes over ``ops`` until ``seconds`` have passed.

    Returns (traced, [(kind, seconds, Outcome)], tracer) per pass. With
    ``trace``, every second pass is traced and also runs the probes that
    time sub-layers; a run holds at least one pass of each kind.
    """
    from pipeline import Outcome

    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else OFF
        records = []
        for op in ops:
            start = perf_counter()
            raw, error = None, ""
            with tracer.span("op." + op.kind):
                try:
                    raw = runner.execute(op, tracer)
                except Exception as exc:  # a failed operation, counted below
                    error = f"{op.inst.name}: {type(exc).__name__}: {exc}"[:200]
            elapsed = perf_counter() - start
            if error:
                outcome = Outcome(True, False, error=error)
            else:
                try:
                    outcome = runner.judge(op, raw)
                except Exception as exc:  # unreadable output from a successful command
                    outcome = Outcome(True, True, error=f"{op.inst.name}: {exc!r}"[:200])
            records.append((op.kind, elapsed, outcome))
            if traced:
                with tracer.span("probe"):
                    runner.probe(op, tracer)
        passes.append((traced, records, tracer if traced else None))
    return passes


def pass_median(passes, kind: str) -> float:
    """Median over untraced passes of the summed latency of one operation kind."""
    return statistics.median(
        sum(lat for k, lat, _ in records if k == kind)
        for traced, records, _ in passes if not traced
    )


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest of PERCENTILES with at least ten samples beyond it, and its value."""
    n = len(latencies)
    pct = max((p for p in PERCENTILES if n * (100 - p) / 100 >= 10), default=50)
    return pct, latencies[max(0, math.ceil(pct / 100 * n) - 1)]


def layer_metrics(passes, instances, outcomes, tail_pct: float) -> dict[str, float]:
    traced = [tracer for is_traced, _, tracer in passes if is_traced]
    per_pass = [_pass_layers(tracer) for tracer in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    untraced_ops = statistics.median(
        sum(lat for _, lat, _ in records) for is_traced, records, _ in passes if not is_traced)
    traced_ops = statistics.median(sum(d for _, d in t.roots("op.")) for t in traced)
    seen = Counter(o.clause for o in outcomes)
    metrics.update({
        "blossom.free_vertices": sum(i.stats.get("blossom.free_vertices", 0) for i in instances),
        "blossom.cover_labels": sum(i.stats.get("blossom.cover_labels", 0) for i in instances),
        "gcd.operand_digits": max((i.digits for i in instances), default=0),
        **{f"verdict.rejects.{c}": seen[c] for c in FORGED_CLAUSES},
        "ops": len(outcomes),
        "op_tail_pct": tail_pct,
        "failed_share": sum(o.failed for o in outcomes) / len(outcomes),
        "trace.overhead_share": traced_ops / untraced_ops - 1,
    })
    return metrics


def _pass_layers(tracer) -> dict[str, float]:
    """Per-layer self seconds, parse rate and ratios of one traced pass."""
    own = tracer.self_times()
    layer = Counter()
    for (_, name), seconds in own.items():
        layer[name] += seconds
    parse_s = layer["formats.parse_graph"] + layer["formats.parse_witness"]
    ops_s = sum(d for _, d in tracer.roots("op."))
    out = {f"{name}_s": layer[name] for name in LAYER_SPANS}
    out["cli.spawn_s"] = layer["cli.roundtrip"] - layer["cli.main"]
    out["formats.parse_mb_per_s"] = tracer.counts["parsed_bytes"] / 1e6 / parse_s if parse_s else 0.0
    for name, (check, solve) in RATIOS.items():
        base = own.get(("op.certify", solve), 0.0)
        out[name] = own.get(("op.certify", check), 0.0) / base if base else 0.0
    # Time inside operations that no layer span covers: the benchmark's glue.
    out["trace.unaccounted_share"] = (layer["op.certify"] + layer["op.verify"]) / ops_s
    return out


def write_trace(passes, workload: str, seed: int) -> None:
    folder = WORK / "traces"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    for i, (traced, _, tracer) in enumerate(passes):
        if traced:
            tracer.dump(path, i)


if __name__ == "__main__":
    sys.exit(main())
