#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed-base 100]

Runs every workload (default: all in BENCHMARK.json) once per seed with
--trace 0 and prints, per metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. A spread above a third
of its bound is flagged, except for setup_s, which has no spread gate.
Exits non-zero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, bench["run_seconds"])
            if result is None:
                print("%s seed %d: FAILED" % (workload, args.seed_base + i))
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = m["name"] != "setup_s"
            flag = ""
            if gated and spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif gated and spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("%-12s %-20s median %12.5g  spread %6.3f  bound %.3f%s" %
                  (workload, m["name"], med, spread, m["bound"], flag))
            print("    values: " + " ".join("%.5g" % v for v in vals))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
