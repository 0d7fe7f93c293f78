#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Usage, from the root of the repository:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json tiny (--smoke: objects and the
file set shrunk, one set-up, a one-second timed phase), untraced and
traced. For each run it asserts that the last line is the result JSON
with exactly the agreed keys, that every end-to-end (untraced) or
per-layer (traced) metric is present with its unit, both in the JSON
and as a text line, that the figures printed but not gated are there
with their units, and that no operation failed (fail_rate 0).
Exits non-zero on the first run that breaks any of these.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Printed as text lines on every run, but not in BENCHMARK.json.
UNGATED = (("goodput_mbps", "Mb/s"), ("fetch_per_s", "1/s"), ("fetch_ms_p90", "ms"),
           ("fetch_ms_p99", "ms"))


def check(workload, trace, expected):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not JSON"], proc.stdout + proc.stderr
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correct=%s failed=%s" % (result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted=%s" % result.get("attempted"))
    if "fail_rate = 0 ratio" not in lines:
        problems.append("no 'fail_rate = 0 ratio' line")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append("metric names differ: %s" %
                        sorted(set(metrics) ^ {m["name"] for m in expected}))
    prefix = "per_layer" if trace else "end_to_end"
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s" % (m["name"], got))
        pattern = r"^%s %s = \S+ %s$" % (prefix, re.escape(m["name"]), re.escape(m["unit"]))
        if not any(re.match(pattern, line) for line in lines):
            problems.append("no text line for %s" % m["name"])
    for name, unit in UNGATED:
        pattern = r"^%s = \S+ %s \(" % (re.escape(name), re.escape(unit))
        if not any(re.match(pattern, line) for line in lines):
            problems.append("no text line for %s" % name)
    return problems, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems, output = check(workload, trace, expected)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-12s trace=%d %s" % (workload, trace, status))
            sys.stdout.flush()
            if problems:
                sys.stderr.write(output[-3000:])
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
