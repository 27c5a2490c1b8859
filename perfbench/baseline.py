"""Run the benchmark on several seeds and summarize the spread of each metric.

    python3 perfbench/baseline.py --workloads search cusps forms --seeds 1-10
    python3 perfbench/baseline.py --seeds 1-10 --trace-seed 1 --write
    python3 perfbench/baseline.py --seeds 1 --repeat 10 --write

Each run is a separate `run.py` process, one at a time.  For every workload
and end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median.  --repeat runs
each seed that many times in a row, which separates the machine's drift
from the differences between seeds' inputs.  With --write the summary, one
traced run per workload and the environment are stored in
perfbench/record.json, under "baseline" (or "same_seed" with --repeat).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "record.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seeds = [s for s in seeds_of(args.seeds) for _ in range(args.repeat)]
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit("error: %s seed %d failed %d requests"
                                 % (workload, seed, result["failed"]))
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        entry = {"seeds": seeds, "attempted": [r["attempted"] for r in runs], "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats["unit"] = first["unit"]
            stats["values"] = values
            entry["metrics"][name] = stats
            print("  %-12s %-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.4f" % (
                workload, name, stats["median"], stats["q1"], stats["q3"], stats["spread"]))
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "metrics": {
                k: v["value"] for k, v in traced["metrics"].items()}}
        summary[workload] = entry
    if args.write:
        with open(RECORD) as fh:
            record = json.load(fh)
        base = record.setdefault("same_seed" if args.repeat > 1 else "baseline", {})
        base["environment"] = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seconds": args.seconds,
        }
        base.setdefault("workloads", {}).update(summary)
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
