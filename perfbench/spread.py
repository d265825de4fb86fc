#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, measured rather than assumed.

    python3 perfbench/spread.py --workload records --seeds 1-10 [--trace 0] [--out FILE]

Runs `run.py` once per seed, each in a fresh process and one after another,
then prints for every metric the median of the runs and the distance between
their first and third quartiles as a share of that median
(`statistics.quantiles(values, n=4)`).  With `--out` the summary, the
per-run values and sample counts, `nproc` and the Python version are also
written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())[
                            "run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=180)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr))
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["process_s"] = round(elapsed, 2)
        result["samples"] = {k: int(v) for k, v in (
            f.split("=") for f in lines[1].split()[1:])}
        runs.append(result)
        print("seed %d correct=%s attempted=%d failed=%d process_s=%.1f" % (
            seed, result["correct"], result["attempted"], result["failed"], elapsed),
            flush=True)

    print("%-40s %14s %8s  unit" % ("metric", "median", "IQR/med"))
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        metrics[name] = {"unit": first["unit"], "median": med, "iqr_over_median": rel,
                         "values": values}
        print("%-40s %14.6g %8.4f  %s" % (name, med, rel, first["unit"]))
    if args.out:
        summary = {
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "seeds": [r["seed"] for r in runs], "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "samples": [r["samples"] for r in runs],
            "process_s": [r["process_s"] for r in runs],
            "metrics": metrics,
        }
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
