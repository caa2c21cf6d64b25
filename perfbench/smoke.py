"""Tiny-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run prints every end-to-end (untraced) or per-layer (traced) metric
named in BENCHMARK.json with its unit, and that no op failed.  Exits 1
on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"{where}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            problems = [
                f"{m['name']} missing or not in {m['unit']}"
                for m in expected[trace]
                if metrics.get(m["name"], {}).get("unit") != m["unit"]
            ]
            problems += [f"{name} is not in BENCHMARK.json" for name in
                         set(metrics) - {m["name"] for m in expected[trace]}]
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{result['failed']} of {result['attempted']} ops failed")
            if problems:
                print(f"{where}: " + "; ".join(problems), file=sys.stderr)
                return 1
            print(f"{where}: {result['attempted']} ops, {len(metrics)} metrics, none failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
