#!/usr/bin/env bash
# Developer gate: eleven legs, all required.
#
#   1. AddressSanitizer: warnings-as-errors build + the full test suite
#      (build-asan/).
#   2. Scalar-kernel rerun: the same build-asan suite again with
#      SIMSEL_FORCE_SCALAR=1, so every test also passes with the SIMD
#      dispatch pinned to the scalar reference kernels (the configuration
#      non-x86 machines run; also proves no test depends on a particular
#      variant).
#   3. Docs: scripts/check_docs.py verifies every internal markdown link in
#      docs/*.md, README.md, DESIGN.md, EXPERIMENTS.md and ROADMAP.md, that
#      every simsel_cli flag the docs mention exists in the built
#      binary's --help output (uses build-asan's simsel_cli from leg 1),
#      and that the metric names registered in src/ and the table in
#      docs/OBSERVABILITY.md agree in both directions.
#   4. Prometheus exposition lint: `simsel_cli --stats` output piped
#      through scripts/check_prom.py — every line must parse, no series
#      may repeat, every family needs # HELP and # TYPE, histogram +Inf
#      buckets must equal their _count.
#   5. ThreadSanitizer: the concurrency-labeled tests — thread_pool_test,
#      buffer_pool_test, parallel_test, query_control_test (which cancels
#      in-flight queries on a shared selector), the concurrency_test
#      soak, which runs mixed algorithms in disk and memory mode against
#      one shared index/store/pool, serving_test's scatter-gather +
#      result-cache soak, dynamic_concurrency_test's readers x writer
#      x online-Rebuild soak on one DynamicSelector (epoch reclamation,
#      delta publish, segment swap), its sketch-tier on/off readers
#      against a live writer and its cached readers x writer x
#      background-rebuild replay (PatchedHitsMatchUncachedAcross-
#      BackgroundRebuilds: patched result-cache hits against uncached
#      answers while appends land mid-build), server_test's live-socket integration tests
#      (admission, drain, SLO), and oracle_test's pooled segment fan-outs
#      (the differential oracle over every configuration) — must produce
#      zero race reports (build-tsan/).
#   6. UndefinedBehaviorSanitizer: the codec / SIMD-kernel / store tests,
#      membership_probe_test (TA/iTA's (len, id) search of the block
#      summaries) and oracle_test, which runs every algorithm over v2/v3/v4
#      image round trips, under -fsanitize=undefined with non-recoverable
#      reports (build-ubsan/) — the block codec's bit packing, the
#      per-variant kernels and the probe's index arithmetic are exactly
#      where UB (shifts, misaligned loads, overflow) would hide. CI's
#      ubsan job runs the same targets.
#   7. Serving smoke: bench_ycsb (build-asan) stands up a live TCP server
#      over a DynamicServing back end and drives it closed- and open-loop
#      through src/gen/load.h — zero transport errors, full shed/ok
#      accounting and a clean drain are its exit-code contract, so the
#      whole network serving path runs under ASan on every gate.
#   8. Perf regression: a plain RelWithDebInfo build runs
#      bench_micro --benchmark_filter='BM_Query|BM_BuildSelector' and
#      scripts/bench_compare.py diffs the artifact against the committed
#      baseline (bench/baselines/BENCH_micro.json); >10% regression on any
#      query benchmark — mean or p99 — or on the selector build time fails
#      the gate.
#   9. Prefilter exactness gate: the same plain build runs bench_prefilter
#      (which opts in to the sketch tier; every query compared tier-on vs
#      tier-off across all algorithms and thresholds) and scripts/bench_compare.py --prefilter-gate enforces
#      the artifact's claims — all cells byte-identical and the SF tau=0.9
#      elements-read reduction at least 2x.
#  10. Benchmark smoke: python3 simbench/run.py runs each of the three
#      workloads (grid-mem, grid-disk, serve-rw) for 20 s; every run must
#      exit 0 and end with a result line reporting "correct": true. 20 s is
#      the shortest run that gives serve-rw its 1000 samples per sub-leg.
#  11. Work table: scripts/work_table.py runs grid-mem and grid-disk for
#      seeds 1-3 and compares every grid cell's op count and mean elements
#      read exactly against bench/baselines/WORK_grid.json — the paper's
#      cost unit, free of timing noise, so it runs even when the timing legs
#      are skipped. A change that moves a count must regenerate the baseline
#      (scripts/work_table.py --update) and explain the shift.
#
# Usage:
#
#   scripts/check.sh                       # all eleven legs
#   SIMSEL_CHECK_TSAN=1 scripts/check.sh   # widen the TSan leg to the full suite
#   SIMSEL_CHECK_SKIP_BENCH=1 scripts/check.sh  # skip legs 8-10 (e.g. loaded CI box)
#
# Keep this green before sending changes; it is the same configuration the
# sanitizer options in CMakeLists.txt expose.
#
# Refreshing the perf baseline (only for intentional perf-profile changes —
# explain the shift in the same commit):
#
#   (cd build-bench/bench &&
#    ./bench_micro --benchmark_filter='BM_Query|BM_BuildSelector')
#   cp build-bench/bench/BENCH_micro.json bench/baselines/BENCH_micro.json
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"

echo "== check.sh leg 1/11: AddressSanitizer, full suite =="
cmake -B build-asan -S . -DSIMSEL_WERROR=ON -DSIMSEL_ENABLE_ASAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== check.sh leg 2/11: full suite with SIMSEL_FORCE_SCALAR=1 =="
SIMSEL_FORCE_SCALAR=1 \
  ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== check.sh leg 3/11: documentation links, CLI flags, metric names =="
scripts/check_docs.py --cli build-asan/examples/simsel_cli

echo "== check.sh leg 4/11: Prometheus exposition lint =="
build-asan/examples/simsel_cli --stats --words=2000 2>/dev/null \
  | scripts/check_prom.py

echo "== check.sh leg 5/11: ThreadSanitizer =="
cmake -B build-tsan -S . -DSIMSEL_WERROR=ON -DSIMSEL_ENABLE_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$jobs"
# TSan makes any report fatal (halt_on_error) so a race fails ctest even if
# the test's assertions would have passed.
if [[ "${SIMSEL_CHECK_TSAN:-0}" == "1" ]]; then
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs"
else
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L concurrency
fi

echo "== check.sh leg 6/11: UndefinedBehaviorSanitizer, codec + kernels =="
cmake -B build-ubsan -S . -DSIMSEL_WERROR=ON -DSIMSEL_ENABLE_UBSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ubsan -j "$jobs" \
      --target codec_test simd_kernels_test posting_store_test \
               index_version_test membership_probe_test oracle_test
ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
      -R 'codec_test|simd_kernels_test|posting_store_test|index_version_test|membership_probe_test|oracle_test'

echo "== check.sh leg 7/11: network serving smoke (bench_ycsb under ASan) =="
cmake --build build-asan -j "$jobs" --target bench_ycsb
(cd build-asan/bench && ./bench_ycsb --words=6000 --queries=60 --conns=2 \
     --requests=30 --seconds=1)

if [[ "${SIMSEL_CHECK_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== check.sh leg 8/11: perf regression — SKIPPED (SIMSEL_CHECK_SKIP_BENCH=1) =="
else
  echo "== check.sh leg 8/11: perf regression vs bench/baselines/BENCH_micro.json =="
  # Sanitizer builds are useless for timing: a separate plain build.
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-bench -j "$jobs" --target bench_micro
  (cd build-bench/bench &&
     ./bench_micro --benchmark_filter='BM_Query|BM_BuildSelector')
  scripts/bench_compare.py bench/baselines/BENCH_micro.json \
      build-bench/bench/BENCH_micro.json
fi

if [[ "${SIMSEL_CHECK_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== check.sh leg 9/11: prefilter exactness gate — SKIPPED (SIMSEL_CHECK_SKIP_BENCH=1) =="
else
  echo "== check.sh leg 9/11: prefilter exactness gate (bench_prefilter ablation) =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-bench -j "$jobs" --target bench_prefilter
  (cd build-bench/bench && ./bench_prefilter --words=50000 --queries=100)
  scripts/bench_compare.py --prefilter-gate build-bench/bench/BENCH_prefilter.json
fi

if [[ "${SIMSEL_CHECK_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== check.sh leg 10/11: benchmark smoke — SKIPPED (SIMSEL_CHECK_SKIP_BENCH=1) =="
else
  echo "== check.sh leg 10/11: benchmark smoke (simbench, all three workloads) =="
  scripts/bench_smoke.sh
fi

echo "== check.sh leg 11/11: work table vs bench/baselines/WORK_grid.json =="
scripts/work_table.py

echo "check.sh: all legs passed"
