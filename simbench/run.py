#!/usr/bin/env python3
"""Builds the simsel benchmark from source and runs one workload.

Usage (from the repository root):

  python3 simbench/run.py --workload grid-mem|grid-disk|serve-rw \
      --seed N --seconds S --trace 0|1
  python3 simbench/run.py --selftest

The build goes to .bench_build/simbench under the working directory and is
incremental, so only the first run of a checkout compiles. Build output goes
to stderr; stdout carries the benchmark's report, whose last line is the
JSON result. The exit code is the benchmark's: non-zero on any exactness
violation, and on a failed build (then without a result line).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "simbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the package; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print("simbench: cannot run %s: %s" % (cmd[0], err), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("simbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs the benchmark binary, stdout passed through; returns its code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("simbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["grid-mem", "grid-disk", "serve-rw"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not build():
        return 1
    if args.selftest:
        return run([os.path.join(BUILD_DIR, "simbench_selftest")])
    sys.stdout.flush()
    return run([os.path.join(BUILD_DIR, "simbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--out-dir", RESULTS_DIR])


if __name__ == "__main__":
    sys.exit(main())
