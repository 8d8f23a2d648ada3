"""The benchmark harness still runs end to end (verdicts and schema, never timings)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "certify_s", "verify_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def run_tiny(workload: str, trace: int, failed: int = 0) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "0.1", "--size", "tiny", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == failed
    return result


def test_matching_families_tiny_run():
    result = run_tiny("matching-families", 0)
    assert set(END_TO_END) <= set(result["metrics"])


def test_cli_mixed_tiny_run():
    # The one failure is solve-gcd on gcd-5000: the CLI still refuses argv
    # numbers past the interpreter's digit limit.
    result = run_tiny("cli-mixed", 0, failed=1)
    assert set(END_TO_END) <= set(result["metrics"])


def test_sparse_paths_traced_tiny_run():
    # The traced pass also probes check_trian and check_just on their own.
    result = run_tiny("sparse-paths", 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
