"""Record the benchmark baseline into perfbench/baseline.json.

Usage: python3 perfbench/record_baseline.py [--seeds 10] [--seconds 40]

Runs every workload untraced once per seed (1..N) and traced once (seed 1).
For each end-to-end metric it stores the per-seed values, their median and
their quartile spread (distance between the first and third quartile as a
share of the median) next to the metric's bound; for the traced run it stores
every per-layer value. It also records the host (nproc, Python and numpy
versions) and which end-to-end metric and workload each layer metric is
expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layer metric prefix -> the end-to-end metric and workloads it should move.
LAYER_MAP = {
    "corpus.": {"moves": "run_s", "on": ["augment-vote"], "note": "flat on desk"},
    "normalize.": {"moves": "run_s", "on": ["augment-vote"], "note": "under 1 % of desk"},
    "encoder.fit": {"moves": "run_s", "on": ["desk", "tune-grid"]},
    "encoder.step": {"moves": "run_s", "on": ["desk", "tune-grid"]},
    "encoder.fits_repeated": {"moves": "run_s", "on": ["tune-grid"], "note": "0 on desk"},
    "encoder.featurize": {
        "moves": "run_s", "on": ["augment-vote"],
        "note": "a featurize-once cache must not push up peak_rss_mb here",
    },
    "encoder.predict": {"moves": "run_s", "on": ["augment-vote"]},
    "encoder.save_s": {"moves": "run_s", "on": ["desk", "tune-grid", "augment-vote"]},
    "ensemble.": {"moves": "run_s", "on": ["augment-vote"]},
    "tune.": {"moves": "run_s", "on": ["tune-grid"], "note": "0 on the other workloads"},
    "evaluate.": {"moves": "run_s", "on": ["tune-grid", "desk"]},
    "augment.": {"moves": "run_s", "on": ["augment-vote"], "note": "0 on the other workloads"},
    "report.s": {"moves": None, "on": [], "note": "guard: should not move"},
    "pipeline.stage.": {"moves": "run_s", "on": ["desk", "tune-grid", "augment-vote"]},
    "pipeline.resume_s": {
        "moves": None, "on": ["desk", "tune-grid", "augment-vote"],
        "note": "the all-stages-skipped rerun, where input hashing will show",
    },
    "pipeline.bytes_written": {"moves": None, "on": ["desk", "tune-grid", "augment-vote"]},
    "pipeline.cpu_s": {
        "moves": None, "on": ["desk", "tune-grid", "augment-vote"],
        "note": "CPU cost of parallel folds shows here, not in run_s",
    },
    "trace.overhead_s": {"moves": None, "on": [], "note": "traced minus untraced run_s"},
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v['value']:.4f}" for k, v in list(result["metrics"].items())[:5]), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    import numpy

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    workloads = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {
                "median": median, "spread": (q3 - q1) / median, "bound": bound, "values": values,
            }
            print(f"{workload} {name}: median {median:.4f}, spread {(q3 - q1) / median:.4f} "
                  f"(bound {bound})", flush=True)
        traced = run(workload, 1, args.seconds, 1)
        workloads[workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            "operations": {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
            },
        }
    baseline = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "probe_nominal_s": hostspeed.NOMINAL_S,
        },
        "seeds": list(range(1, args.seeds + 1)),
        "run_seconds": args.seconds,
        "layer_map": LAYER_MAP,
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
