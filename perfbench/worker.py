"""One fresh process of the benchmark: set up a workload, then run it.

  --mode setup    import phasebc, build the workload's inputs, warm up, and
                  report how long that took, in wall seconds and scaled
                  to the reference CPU (speed.py);
  --mode measure  the same set-up, then one untraced block;
  --mode trace    the same set-up, an untraced block, then a traced block
                  of the same operations; reports per-layer metrics, the
                  tracing overhead, and checks that the exact counts of
                  the two blocks agree.

The last line of standard output is one JSON object.  run.py starts this
file; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import phasebc  # noqa: E402
import scipy  # noqa: E402

if not Path(phasebc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"phasebc was imported from {phasebc.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_LADDER = (99.0, 95.0, 90.0)
SETUP_PROBES = 20
SPANS_DIR = ROOT / ".perfbench_out"


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(p / 100.0 * n)))
    return sorted_values[rank - 1], n - rank


def latency_summary(block, cpu_bound):
    values = sorted(v * 1e-6 for v in block.latencies_ns)
    if not values:   # every operation failed; the run is reported as incorrect
        return {"ops": 0, "ops_per_s": 0.0, "ops_per_ref_s": 0.0, "p10_ms": None,
                "p50_ms": None, "tail_ms": None, "tail_percentile": None,
                "samples_beyond_tail": 0}
    # The highest percentile with at least ten samples beyond it; a run too
    # short for any of them reports its slowest operation (100).
    chosen = next((p for p in TAIL_LADDER if percentile(values, p)[1] >= 10), 100.0)
    tail, beyond = percentile(values, chosen)
    wall_s = block.wall_s
    ref_s = speed.reference_s(wall_s, block.probe_ns) if cpu_bound else wall_s
    return {
        "ops": len(values),
        "ops_per_s": len(values) / wall_s,
        "ops_per_ref_s": len(values) / ref_s,
        "probe_ns": block.probe_ns,
        "p10_ms": percentile(values, 10.0)[0],
        "p50_ms": statistics.median(values),
        "tail_ms": tail,
        "tail_percentile": chosen,
        "samples_beyond_tail": beyond,
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_mismatches(workload, untraced, traced):
    """The exact counts must repeat between the untraced and traced blocks."""
    if untraced.counts != traced.counts:
        workload.fail(traced.attempted, f"counts differ between blocks: "
                                        f"{untraced.counts} vs {traced.counts}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - T0
    probe = statistics.fmean(speed.probe_ns() for _ in range(SETUP_PROBES))
    result = {"workload": args.workload, "setup_wall_s": setup_s, "setup_probe_ns": probe,
              "setup_s": speed.reference_s(setup_s, probe)}
    if args.mode == "measure":
        block = workload.run_block(args.seconds)
        rss = peak_rss_mb()   # before the latency summary below allocates
        result.update(
            latency=latency_summary(block, workload.cpu_bound),
            attempted=block.attempted,
            failed=block.failed,
            extra=block.extra,
            counts=block.counts,
            peak_rss_mb=rss,
        )
    elif args.mode == "trace":
        untraced = workload.run_block(args.seconds / 2.0)
        recorder = tracing.Tracer()
        tracing.install(recorder)
        workload.tracer = recorder
        recorder.enabled = True
        try:
            traced = workload.run_block(args.seconds / 2.0)
        finally:
            recorder.enabled = False
            recorder.restore()
        workload.failed = 0
        layers = workload.layer_metrics(recorder.spans, traced)
        count_mismatches(workload, untraced, traced)
        fast = latency_summary(untraced, workload.cpu_bound)
        slow = latency_summary(traced, workload.cpu_bound)
        # Time per operation, traced over untraced.
        overhead = (fast["ops_per_ref_s"] / slow["ops_per_ref_s"]
                    if slow["ops_per_ref_s"] else 0.0)
        layers["tracing_overhead"] = (overhead, "ratio")
        SPANS_DIR.mkdir(exist_ok=True)
        recorder.write(SPANS_DIR / f"spans-{args.workload}.jsonl")
        result.update(
            layers={name: {"value": value, "unit": unit}
                    for name, (value, unit) in layers.items()},
            spans=len(recorder.spans),
            attempted=untraced.attempted + traced.attempted,
            failed=untraced.failed + traced.failed + workload.failed,
            counts=traced.counts,
            untraced=fast,
            traced=slow,
        )
    result["environment"] = environment()
    result["problems"] = workload.problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
