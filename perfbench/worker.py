"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB_JSON

The job names the checkout's `src` directory, the workload config, an output
root and a result file. The worker times the import of `arahate.cli` plus
`load_config` (set-up), then, unless the job is set-up only, one fresh run
and one resume of the same run directory, checks the outputs and writes a
JSON result. With `trace` set it records per-layer spans of the fresh run.
Throughout, `hostspeed.Probe` samples the host's speed; set-up and the fresh
run each get their wall time and their time in nominal-host seconds.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import hostspeed


def _check_outputs(run_dir: Path, cfg: dict) -> list[str]:
    """Output checks that hold after both a fresh run and a resume."""
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    stages = manifest.get("stages") or {}
    if not stages:
        problems.append("manifest.json lists no stages")
    for stage, status in stages.items():
        if status != "complete":
            problems.append(f"stage {stage} is {status!r}")
    if cfg.get("tune", {}).get("enabled") and not (run_dir / "tune" / "best.json").exists():
        problems.append("tune/best.json is missing")
    if cfg.get("augment", {}).get("enabled"):
        report = json.loads((run_dir / "augmented" / "report.json").read_text(encoding="utf-8"))
        for key, source in report["per_source"].items():
            accounted = sum(
                source.get(field, 0)
                for field in ("added", "discarded_nh", "discarded_low_confidence", "discarded_duplicates")
            )
            if source["rows"] != accounted:
                problems.append(f"augment source {key}: {source['rows']} rows, {accounted} accounted")
    return problems


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def main(job_path: str) -> int:
    start = perf_counter()
    probe = hostspeed.Probe()
    probe.start()
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    import arahate.cli  # noqa: F401  (the set-up cost a CLI user pays)
    from arahate.config import load_config

    load_config(job["config"])
    setup_s = perf_counter() - start
    setup = probe.phase()
    result: dict = {"setup_s": setup_s, "setup_norm_s": hostspeed.normalized(setup_s, setup)}
    if src not in Path(arahate.cli.__file__).resolve().parents:
        print(f"arahate was imported from {arahate.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if not job["setup_only"]:
        result.update(_run_twice(job, load_config, probe))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run_twice(job: dict, load_config, probe: hostspeed.Probe) -> dict:
    from arahate.pipeline import run_experiment

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {"fresh_errors": [], "resume_errors": []}
    try:
        probe.phase()
        cpu = process_time()
        start = perf_counter()
        cfg = load_config(job["config"])
        run_dir = run_experiment(cfg, job["out_root"])
        run_s = perf_counter() - start
        cpu_s = process_time() - cpu
        run = probe.phase()
        out["run_s"] = run_s - run["probe_s"]
        out["run_norm_s"] = hostspeed.normalized(run_s, run)
        out["run_unit_s"] = run["unit_s"]
        out["cpu_s"] = cpu_s - run["probe_s"]
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            tracer.spans.clear()
        out["bytes_written"] = _dir_bytes(run_dir)
        out["fresh_errors"] = _check_outputs(run_dir, cfg)
        metrics_bytes = (run_dir / "metrics.json").read_bytes()
        out["metrics_sha256"] = hashlib.sha256(metrics_bytes).hexdigest()
        aggregates = json.loads(metrics_bytes)["aggregates"]
        out["macro_f1"] = aggregates["macro_f1"]
        out["micro_f1"] = aggregates["micro_f1"]
    except Exception:  # noqa: BLE001 - a failed run is a measured outcome
        out["fresh_errors"].append(traceback.format_exc())
        out["resume_errors"].append("not attempted: the fresh run failed")
        return out
    try:
        start = perf_counter()
        cfg = load_config(job["config"])
        run_experiment(cfg, job["out_root"])
        out["resume_s"] = perf_counter() - start
        out["resume_errors"] = _check_outputs(run_dir, cfg)
        if (run_dir / "metrics.json").read_bytes() != metrics_bytes:
            out["resume_errors"].append("metrics.json changed on resume")
    except Exception:  # noqa: BLE001
        out["resume_errors"].append(traceback.format_exc())
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
