#!/usr/bin/env python3
"""Noise-free work table: the paper grid's per-cell operation counts.

Runs simbench's grid-mem and grid-disk workloads for seeds 1-3 and compares
every cell's `n` (ops in the cell) and `elements_read_mean` (the paper's
cost unit) exactly against the committed baseline
bench/baselines/WORK_grid.json. Wall-clock plays no part: each run makes at
least three passes over the grid and simbench takes every op's count from
its first pass, so the table does not depend on run length or machine load.
A change that alters any count fails until the baseline is regenerated with
--update and the shift is explained in the same commit.

Usage (from anywhere; runs from the repository root):

  scripts/work_table.py            # compare; exit 1 on any difference
  scripts/work_table.py --update   # rewrite the baseline from this tree
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["grid-mem", "grid-disk"]
SEEDS = [1, 2, 3]
MIN_PASSES = 3
BASELINE = os.path.join("bench", "baselines", "WORK_grid.json")
RESULTS_DIR = os.path.join(".bench_build", "results")


def run_table(workload, seed):
    """Runs one simbench workload; returns its cells as {key: counts}."""
    cmd = [sys.executable, os.path.join("simbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1"]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit("work_table: %s exited %d" % (" ".join(cmd), done.returncode))
    with open(os.path.join(RESULTS_DIR, workload + ".json")) as f:
        result = json.load(f)
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit("work_table: %s seed %d was not correct" % (workload, seed))
    cells = {}
    for c in result["cells"]:
        key = "%s tau=%s %s" % (c["bucket"], c["tau"], c["algo"])
        cells[key] = {"n": c["n"],
                      "elements_read_mean": c["elements_read_mean"]}
    ops = sum(c["n"] for c in cells.values())
    if result["attempted"] < MIN_PASSES * ops:
        sys.exit("work_table: %s seed %d ran fewer than %d passes" %
                 (workload, seed, MIN_PASSES))
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline instead of comparing")
    args = parser.parse_args()
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

    table = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("work_table: %s seed %d" % (workload, seed), flush=True)
            table["%s seed=%d" % (workload, seed)] = run_table(workload, seed)

    if args.update:
        with open(BASELINE, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
        print("work_table: wrote %s" % BASELINE)
        return 0

    with open(BASELINE) as f:
        baseline = json.load(f)
    diffs = []
    for run in sorted(set(baseline) | set(table)):
        want, got = baseline.get(run, {}), table.get(run, {})
        for cell in sorted(set(want) | set(got)):
            if want.get(cell) != got.get(cell):
                diffs.append("%s %s: baseline %s, now %s" % (
                    run, cell, json.dumps(want.get(cell), sort_keys=True),
                    json.dumps(got.get(cell), sort_keys=True)))
    for d in diffs:
        print("work_table: " + d)
    if diffs:
        print("work_table: %d cell(s) differ from %s" % (len(diffs), BASELINE))
        return 1
    cells = sum(len(v) for v in table.values())
    print("work_table: all %d cells match %s" % (cells, BASELINE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
