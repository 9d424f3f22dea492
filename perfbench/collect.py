"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads mc-loopback,tcp-demo --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the bound fixed in BENCHMARK.json.  With
--out the summary and every run's output are written as JSON; the seed
baseline in baseline/ was made this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """Median and IQR/median; the share is None when the median is 0."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, runs = {}, []
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "info": json.loads(lines[-2]), "result": result})
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median, share = spread(vals) if len(vals) >= 2 else (vals[0], 0.0)
            summary[workload][name] = {"median": median, "iqr_share": share,
                                       "values": vals}
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            shown = "n/a" if share is None else f"{share:.4f}"
            print(f"  {name:55s} median {median:.6g}  iqr/median {shown}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
             "summary": summary, "runs": runs}, indent=1, allow_nan=False) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
