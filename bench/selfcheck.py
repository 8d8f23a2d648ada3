"""Tiny-size self-check of the benchmark: schema and verdicts, never timings.

    python3 bench/selfcheck.py

Runs every workload named in ``BENCHMARK.json`` at tiny size, untraced and
traced, each in its own process, and checks the last line of each run: the
four contract keys, every metric ``BENCHMARK.json`` lists for that mode
with its unit, ``correct`` true, and at least one rejection for each
forged clause the workload plants. It also checks that the benchmark
refuses to run, without printing a result, where the program's sources are
missing. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PLANTED = {
    "sparse-paths": ("just", "trian", "parent_num"),
    "matching-families": ("subset",),
    "cli-mixed": ("just", "trian", "parent_num", "subset", "combination"),
}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )


def problems_in(proc: subprocess.CompletedProcess, expected: list[dict], planted) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        found.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (type(attempted) is int and type(failed) is int and 0 <= failed <= attempted
            and attempted >= 1):
        found.append(f"attempted {attempted!r}, failed {failed!r}")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in expected]:
        found.append(f"metric names {list(metrics)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or type(got.get("value")) not in (int, float):
            found.append(f"{m['name']}: {got}")
    for clause in planted:
        if metrics.get(f"verdict.rejects.{clause}", {}).get("value", 1) < 1:
            found.append(f"no forged witness rejected by {clause}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = problems_in(run(ROOT, name, trace), spec[key], PLANTED[name] if trace else ())
            print(f"{name} --trace {trace}: {'ok' if not found else '; '.join(found)}")
            failures += bool(found)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"without the program's sources: {'refused' if refused else 'NOT refused'}")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
