#!/usr/bin/env python3
"""Build and run the FOBS end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the benchmark (Release) from the
repository's sources into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when an operation failed or did not verify, or
when the build failed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fobs_perfbench")
OUT_DIR = os.path.join(BUILD, "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(BINARY):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "fobs_perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no FOBS sources at %s; run from a full checkout" %
                 os.path.join(ROOT, "src"))
    try:
        try:
            build()
        except subprocess.CalledProcessError:
            # A build tree left by another checkout or toolchain: start over.
            shutil.rmtree(BUILD, ignore_errors=True)
            build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    try:
        proc = subprocess.run([BINARY, "--out-dir", OUT_DIR] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
