#!/usr/bin/env bash
# Interleaved A/B wall-clock comparison of two commits on one simbench
# workload. The shared machine's speed drifts between runs, so a single
# run per side proves nothing; this script runs N pairs, alternating which
# side goes first, and reports per end-to-end metric of BENCHMARK.json:
#
#   - the parent's and the change's median and quartiles (q1, q3);
#   - wins: in how many of the N pairs the change beat the parent, in the
#     metric's "better" direction;
#   - gap>IQR: whether the medians differ by more than the parent's
#     interquartile range.
#
# A wall-clock claim holds when the change wins at least 9 of 10 pairs and
# gap>IQR is yes.
#
# Usage (from anywhere; runs from the repository root):
#
#   scripts/ab.sh PARENT CHANGE WORKLOAD N
#   scripts/ab.sh HEAD~ HEAD grid-mem 10
#
# PARENT and CHANGE are any git revisions. Each is exported (git archive)
# into .bench_build/ab/<parent|change>/ and simbench builds there from that
# commit's source, reusing the build while the revision stays the same.
# Pair i runs seed i with the benchmark's run_seconds. Every run's stdout,
# stderr and results artifact land in .bench_build/ab/logs/<workload>/.
#
# Exits 1 if any run exits non-zero, reports "correct" other than true, or
# fails an operation; 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 4 || ! "$4" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/ab.sh PARENT CHANGE WORKLOAD N" >&2
  exit 2
fi
workload=$3
pairs=$4
root=.bench_build/ab
logs=$root/logs/$workload
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

# Exports `rev` into $root/$side unless that directory already holds it,
# then builds simbench there (the self-tests build every target).
prepare() {
  local side=$1 sha
  sha="$(git rev-parse --verify "$2^{commit}")"
  local dir=$root/$side
  if [[ "$(cat "$dir/.ab_rev" 2>/dev/null)" != "$sha" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$sha" | tar -x -C "$dir"
    echo "$sha" > "$dir/.ab_rev"
  fi
  echo "ab: building $side ($sha)" >&2
  (cd "$dir" && python3 simbench/run.py --selftest > /dev/null)
}

prepare parent "$1"
prepare change "$2"
rm -rf "$logs"
mkdir -p "$logs"

# Runs one side at one seed; the last stdout line is the JSON result.
run_side() {
  local side=$1 seed=$2
  local out=$logs/$side.$seed
  echo "ab: pair $seed $side" >&2
  local rc=0
  (cd "$root/$side" && python3 simbench/run.py --workload "$workload" \
      --seed "$seed" --seconds "$seconds") > "$out.out" 2> "$out.err" || rc=$?
  echo "$rc" > "$out.rc"
  cp "$root/$side/.bench_build/results/$workload.json" "$out.json" \
    2> /dev/null || true
}

for ((seed = 1; seed <= pairs; seed++)); do
  if ((seed % 2 == 1)); then
    run_side parent "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side parent "$seed"
  fi
done

python3 - "$logs" "$pairs" "$workload" "$1" "$2" <<'EOF'
import json
import sys

logs, pairs, workload, parent_rev, change_rev = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open("BENCHMARK.json"))


def quantile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


bad = []
values = {"parent": [], "change": []}
for seed in range(1, pairs + 1):
    for side in values:
        stem = "%s/%s.%d" % (logs, side, seed)
        rc = int(open(stem + ".rc").read())
        lines = open(stem + ".out").read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        if rc != 0 or result.get("correct") is not True or \
                result.get("failed", 1) != 0:
            bad.append("%s seed %d: exit %d, correct %s, failed %s" % (
                side, seed, rc, result.get("correct"), result.get("failed")))
            continue
        values[side].append(
            {k: v["value"] for k, v in result["metrics"].items()})

print("ab: %s, %d pairs, parent %s vs change %s" % (
    workload, pairs, parent_rev, change_rev))
if bad:
    for line in bad:
        print("ab: FAILED RUN " + line)
    sys.exit(1)

header = ("metric", "parent med", "q1", "q3", "change med", "q1", "q3",
          "ratio", "wins", "gap>IQR")
print("| " + " | ".join(header) + " |")
print("|" + "---|" * len(header))
for metric in spec["end_to_end"]:
    name = metric["name"]
    lower = metric["better"] == "lower"
    p = [run[name] for run in values["parent"]]
    c = [run[name] for run in values["change"]]
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    p1, p3 = quantile(p, 0.25), quantile(p, 0.75)
    gap = (pm - cm if lower else cm - pm) > p3 - p1
    print("| %s | %.4g | %.4g | %.4g | %.4g | %.4g | %.4g | %.3f | %d/%d | %s |"
          % (name, pm, p1, p3, cm, quantile(c, 0.25), quantile(c, 0.75),
             cm / pm if pm else float("nan"), wins, pairs,
             "yes" if gap else "no"))
EOF
