#!/usr/bin/env bash
# Benchmark smoke: runs each simbench workload once and fails unless every
# run exits 0 and its last stdout line is a JSON result with
# "correct": true. The runs use the benchmark's own 20 s duration: shorter
# runs starve serve-rw of its minimum 1000 samples per sub-leg.
#
# Usage (from anywhere; runs from the repository root):
#
#   scripts/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in grid-mem grid-disk serve-rw; do
  echo "-- simbench $workload --"
  if ! out="$(python3 simbench/run.py --workload "$workload" --seed 1 \
                  --seconds 20)"; then
    printf '%s\n' "$out"
    echo "bench_smoke: simbench $workload exited non-zero" >&2
    exit 1
  fi
  result="$(printf '%s\n' "$out" | tail -n 1)"
  echo "$result"
  if ! python3 -c '
import json, sys
try:
    ok = json.loads(sys.argv[1]).get("correct") is True
except ValueError:
    ok = False
sys.exit(0 if ok else 1)' "$result"; then
    echo "bench_smoke: simbench $workload did not report correct: true" >&2
    exit 1
  fi
done
echo "bench_smoke: all workloads correct"
