#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library from src/ plus the benchmark into .bench_build/perfbench; later calls
rebuild only what changed. The benchmark's self-test (oracle_test.cc) runs
before every measurement, so a broken ground truth never produces numbers.
A traced run writes its Chrome trace to
.bench_build/perfbench/traces/<workload>.json, replacing the previous one.

Build and test output goes to stderr; the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the build,
the self-test or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=sys.stderr):
    """Runs cmd to completion; returns its exit code (124 on timeout)."""
    try:
        return subprocess.run(cmd, stdout=stdout, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources under src/", file=sys.stderr)
        return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
           BUILD_TIMEOUT_S) != 0:
        return 1
    return run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if build() != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if run([os.path.join(BUILD, "perfbench_test"), "--gtest_brief=1"],
           TEST_TIMEOUT_S) != 0:
        print("run.py: benchmark self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    return run(cmd, RUN_TIMEOUT_S, stdout=sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
