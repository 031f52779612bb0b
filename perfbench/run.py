"""Benchmark of the arahate experiment pipeline on seeded synthetic corpora.

Usage:
    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from anywhere inside a checkout; it imports `arahate` from the
checkout's `src` directory and fails without a result if that is missing.

One client drives a closed loop: each repetition is a fresh interpreter that
runs the workload's config through `load_config` + `run_experiment` (fresh),
then again over the same run directory (resume), and checks the outputs.
Repetitions continue while the next one is expected to end within
`--seconds`. Set-up (import of `arahate.cli` plus `load_config`) is also
sampled in set-up-only interpreters. Every worker samples the host's speed
while it runs (`hostspeed.py`), and the end-to-end times are medians over
repetitions of each phase's time in seconds of a nominal-speed host, because
on a shared host the raw wall time of the same code drifts by up to a factor
of two within seconds.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
untraced and traced repetitions alternate and the result holds the per-layer
metrics of the traced ones plus the tracing overhead. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import gen
import hostspeed
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "macro_f1": "%",
    "micro_f1": "%",
}
SETUP_SAMPLES = {"full": 3, "tiny": 1}
WORKER_TIMEOUT_S = 100
# Pinned so that every repetition does the same work on one core.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def _spawn(work: Path, tag: str, config: Path, setup_only: bool = False, trace: bool = False) -> dict:
    """Run one worker interpreter; returns its result, or {"error": ...}."""
    job = {
        "src": str(SRC),
        "config": str(config),
        "out_root": str(work / f"{tag}-runs"),
        "result": str(work / f"{tag}-result.json"),
        "setup_only": setup_only,
        "trace": trace,
    }
    job_path = work / f"{tag}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), **WORKER_ENV)
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker {tag} timed out after {WORKER_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(job["out_root"], ignore_errors=True)
    if proc.returncode != 0:
        return {"error": f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    result["wall_s"] = perf_counter() - start
    return result


def _failures(reps: list[dict]) -> list[str]:
    """One message per failed operation (two operations per repetition)."""
    shas = Counter(rep["metrics_sha256"] for rep in reps if "metrics_sha256" in rep)
    expected = shas.most_common(1)[0][0] if shas else None
    failed = []
    for index, rep in enumerate(reps):
        if "error" in rep:
            failed += [f"rep {index}: {rep['error']}"] * 2
            continue
        fresh = list(rep["fresh_errors"])
        if rep.get("metrics_sha256", expected) != expected:
            fresh.append("metrics.json differs from the other repetitions")
        for op, errors in (("fresh", fresh), ("resume", rep["resume_errors"])):
            if errors:
                failed.append(f"rep {index} {op}: {'; '.join(errors)}")
    return failed


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Generate the inputs, sample set-up, run the closed loop; returns the result."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = gen.generate(workload, seed, work / "inputs", tiny=scale == "tiny")
        setups = [_spawn(work, f"setup{i}", config, setup_only=True) for i in range(SETUP_SAMPLES[scale])]
        for setup in setups:
            if "error" in setup:
                raise BenchError(setup["error"])
        reps: list[dict] = []
        start = perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            rep = _spawn(work, f"rep{len(reps)}", config, trace=traced)
            rep["traced"] = traced
            reps.append(rep)
            walls = [r["wall_s"] for r in reps if "wall_s" in r]
            expected_end = perf_counter() - start + (statistics.median(walls) if walls else 0.0)
            if len(reps) >= (2 if trace else 1) and expected_end > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it
    return _summarize(setups, reps, trace)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _summarize(setups: list[dict], reps: list[dict], trace: bool) -> dict:
    failures = _failures(reps)
    ok = [rep for rep in reps if "error" not in rep and "run_s" in rep]
    plain = [rep for rep in ok if not rep["traced"]]
    traced = [rep for rep in ok if rep["traced"]]
    if trace:
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        for name in traced[0]["layers"] if traced else ():
            metrics[name] = _median([rep["layers"][name] for rep in traced])
        metrics["pipeline.resume_s"] = _median([rep["resume_s"] for rep in plain if "resume_s" in rep])
        metrics["pipeline.bytes_written"] = _median([rep["bytes_written"] for rep in plain])
        metrics["pipeline.cpu_s"] = _median([rep["cpu_s"] for rep in plain])
        metrics["trace.overhead_s"] = _median([rep["run_norm_s"] for rep in traced]) - _median(
            [rep["run_norm_s"] for rep in plain]
        )
        units = LAYER_METRICS
    else:
        metrics = {
            "run_s": _median([rep["run_norm_s"] for rep in plain]),
            "setup_s": _median([s["setup_norm_s"] for s in setups] + [rep["setup_norm_s"] for rep in plain]),
            "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in plain]),
            "macro_f1": plain[0]["macro_f1"] if plain else 0.0,
            "micro_f1": plain[0]["micro_f1"] if plain else 0.0,
        }
        units = END_TO_END
    attempted = 2 * len(reps)
    complete = bool(plain) and (bool(traced) or not trace)
    return {
        "correct": not failures and complete,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "failures": failures,
        "reps": len(reps),
        "wall_run_s": _median([rep["run_s"] for rep in plain]),
        "unit_s": _median([rep["run_unit_s"] for rep in plain if rep["run_unit_s"] is not None]),
    }


def _print_block(workload: str, seed: int, result: dict) -> None:
    print(f"# workload {workload}, seed {seed}: {result['reps']} repetitions, "
          f"{result['attempted']} operations, {result['failed']} failed; "
          f"wall run_s {result['wall_run_s']:.4f} s, probe unit {result['unit_s'] * 1e6:.1f} us "
          f"(nominal {hostspeed.NOMINAL_S * 1e6:.0f} us)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'fail_share':32s} {result['failed'] / result['attempted']:14.6f} fraction")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "arahate" / "__init__.py").is_file():
        print(f"no arahate package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
            _print_block(workload, args.seed, results[workload])
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {
            f"{workload}.{name}": metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        }
    else:
        metrics = results[args.workload]["metrics"]
    line = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
