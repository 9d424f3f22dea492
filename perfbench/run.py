"""Benchmark of phasebc: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; phasebc is imported from its ``src/``.
Workloads (see workloads.py for why each exists): mc-loopback, tcp-demo,
tcp-secure, dense-reports.

--trace 0 sets the workload up in five fresh processes and runs it
untraced in the middle one for S seconds.  It reports the end-to-end
metrics: ops_per_ref_s, operations (sessions or report passes) completed
per second; setup_s, the median set-up time of the five processes; and
peak_rss_mb of the measuring process.  Both times are in seconds of a
reference CPU: wall time is rescaled by a speed probe run next to the
work (speed.py), because on a shared two-CPU virtual machine each CPU
runs up to twice as slowly for minutes while other tenants load the
host.  tcp-demo, whose time is a kernel timer, is not rescaled; its
set-up is.  The unscaled wall figures, latency
percentiles (p10, p50 and the tail, with the percentile used and its
sample count) and the dense report times are printed, not gated, with
the run's metadata; the tail moved by up to 28% between runs.

--trace 1 runs every workload in its own fresh process for S/4 seconds,
half untraced and half with spans around phasebc's public entry points,
and reports the per-layer metrics, each named after the workload it was
measured on, plus each workload's tracing overhead.  Spans are written to
.perfbench_out/ in the checkout.

Every output is checked; an operation that raises, aborts or fails a
check counts as failed.  The line before the last one holds the run's
metadata and details; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "phasebc"
WORKLOADS = ("mc-loopback", "tcp-demo", "tcp-secure", "dense-reports")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# One BLAS thread: on a shared two-CPU machine the dense timings vary
# several times less than with two.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def run_child(workload, seed, seconds, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} ({mode}) did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, deadline):
    def setup_only():
        return run_child(args.workload, args.seed, args.seconds, "setup", deadline)

    # Set-up processes before and after the measuring process, so that the
    # median spans more of the run than one moment's machine load.
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    child = run_child(args.workload, args.seed, args.seconds, "measure", deadline)
    setups.append(child)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    lat = child["latency"]
    metrics = {
        "ops_per_ref_s": metric(lat["ops_per_ref_s"], "1/s"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(child["peak_rss_mb"], "MB"),
    }
    detail = {
        "environment": child["environment"],
        "samples": {"ops_per_ref_s": lat["ops"], "setup_s": len(setups), "peak_rss_mb": 1},
        "latency": lat,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "setup_probe_ns": [s["setup_probe_ns"] for s in setups],
        "failed_ratio": child["failed"] / child["attempted"],
        "counts": child["counts"],
        "per_report_ms": child["extra"],
        "problems": child["problems"],
    }
    return child["attempted"], child["failed"], metrics, detail


def traced_run(args, deadline):
    attempted = failed = 0
    metrics, detail = {}, {}
    for workload in WORKLOADS:
        child = run_child(workload, args.seed, args.seconds / len(WORKLOADS), "trace",
                          deadline)
        attempted += child["attempted"]
        failed += child["failed"]
        for name, value in child["layers"].items():
            metrics[f"{workload}.{name}"] = value
        detail[workload] = {key: child[key] for key in
                            ("spans", "counts", "untraced", "traced", "problems")}
        detail["environment"] = child["environment"]
    return attempted, failed, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"phasebc sources not found under {PACKAGE.parent}\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            attempted, failed, metrics, detail = traced_run(args, deadline)
        else:
            attempted, failed, metrics, detail = untraced_run(args, deadline)
    except ChildFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_env": BLAS_ENV,
    }
    print(json.dumps({"metadata": meta, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
