"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Usage: python3 perfbench/smoke.py

Each invocation must exit 0, pass its output checks, fail no operation and
print exactly the metrics `BENCHMARK.json` names, with their units. Exits
non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    if problems:
        raise SystemExit(f"{workload} trace={trace}: " + "; ".join(problems))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        check(workload, 0)
        layers = check(workload, 1)
        repeated = layers["encoder.fits_repeated"]
        if (workload == "tune-grid") != (repeated > 0):
            raise SystemExit(f"{workload}: encoder.fits_repeated = {repeated}")
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
