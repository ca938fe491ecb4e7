// Ablation of the sketch prefilter tier: elements read and wall-clock for
// SF / iNRA / Hybrid with the tier on vs off, across τ ∈ {0.5, 0.7, 0.9},
// plus the tier's admission telemetry (engage rate, admitted candidates,
// measured false positives). Every query's matches are compared on vs off —
// the "identical" column is the exactness claim made empirically;
// scripts/bench_compare.py --prefilter-gate enforces both it and the τ=0.9
// elements-read reduction.
//
// The gated ratio is on elements_read — inverted-list postings, the metric
// every pruning figure in this repo (and the paper) reports. The "work"
// columns charge the tier for its own probes too (elements_read +
// rows_scanned + hash_probes) so the sketch path is not reported as free.
//
// Usage: bench_prefilter [--words=N] [--queries=N]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "gen/workload.h"
#include "obs/metrics_registry.h"
#include "sketch/prefilter.h"

namespace simsel {
namespace {

using bench::Fmt;
using bench::PrintTable;

struct TierRun {
  double total_ms = 0.0;
  uint64_t elements = 0;
  uint64_t elements_read = 0;
  size_t results = 0;
};

struct AblationCell {
  TierRun on;
  TierRun off;
  bool identical = true;
};

AblationCell RunPair(const SimilaritySelector& selector,
                     const Workload& workload, double tau,
                     AlgorithmKind kind) {
  AblationCell cell;
  SelectOptions on, off;
  off.prefilter = false;
  for (const std::string& query : workload.queries) {
    PreparedQuery q = selector.Prepare(query);
    WallTimer on_timer;
    QueryResult a = selector.SelectPrepared(q, tau, kind, on);
    cell.on.total_ms += on_timer.ElapsedMicros() / 1000.0;
    WallTimer off_timer;
    QueryResult b = selector.SelectPrepared(q, tau, kind, off);
    cell.off.total_ms += off_timer.ElapsedMicros() / 1000.0;
    for (TierRun* run : {&cell.on, &cell.off}) {
      const AccessCounters& c = (run == &cell.on) ? a.counters : b.counters;
      run->elements += c.elements_read + c.rows_scanned + c.hash_probes;
      run->elements_read += c.elements_read;
      run->results += c.results;
    }
    if (a.matches.size() != b.matches.size()) {
      cell.identical = false;
    } else {
      for (size_t i = 0; i < a.matches.size(); ++i) {
        if (a.matches[i].id != b.matches[i].id ||
            a.matches[i].score != b.matches[i].score) {
          cell.identical = false;
          break;
        }
      }
    }
  }
  return cell;
}

int Main(int argc, char** argv) {
  BenchEnvOptions env_opts;
  env_opts.num_words = FlagValue(argc, argv, "words", 50000);
  env_opts.with_sql_baseline = false;
  env_opts.with_sketches = true;  // the tier under test is opt-in
  const size_t num_queries = FlagValue(argc, argv, "queries", 100);
  std::printf("Building env over %zu word occurrences...\n",
              env_opts.num_words);
  BenchEnv env = MakeBenchEnv(env_opts);
  const SimilaritySelector& selector = *env.selector;
  if (selector.prefilter() == nullptr) {
    std::fprintf(stderr, "index carries no sketch section; nothing to bench\n");
    return 1;
  }
  const sketch::SketchParams& params = selector.prefilter()->params();
  bench::BenchReport::Global().SetMeta("sketch_k", std::to_string(params.k));
  bench::BenchReport::Global().SetMeta(
      "sketch_bands", std::to_string(params.bands) + "x" +
                          std::to_string(params.rows));
  bench::BenchReport::Global().SetMeta(
      "sketch_bytes", std::to_string(selector.Sizes().sketches));

  WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.min_tokens = 6;
  wo.max_tokens = 15;
  wo.seed = 7000;
  Workload wl = GenerateWordWorkload(env.words, selector.tokenizer(), wo);

  const struct {
    AlgorithmKind kind;
    const char* label;
  } kAlgos[] = {{AlgorithmKind::kSf, "SF"},
                {AlgorithmKind::kInra, "iNRA"},
                {AlgorithmKind::kHybrid, "Hybrid"}};

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* engaged = reg.GetCounter("simsel_prefilter_engaged_total");
  obs::Counter* fallthrough =
      reg.GetCounter("simsel_prefilter_fallthrough_total");
  obs::Counter* admitted = reg.GetCounter("simsel_prefilter_admitted_total");
  obs::Counter* fp = reg.GetCounter("simsel_prefilter_fp_total");

  std::vector<std::vector<std::string>> ablation_rows;
  std::vector<std::vector<std::string>> admission_rows;
  for (double tau : {0.5, 0.7, 0.9}) {
    const uint64_t engaged0 = engaged->Value();
    const uint64_t fallthrough0 = fallthrough->Value();
    const uint64_t admitted0 = admitted->Value();
    const uint64_t fp0 = fp->Value();
    for (const auto& algo : kAlgos) {
      AblationCell cell = RunPair(selector, wl, tau, algo.kind);
      const double read_ratio =
          cell.on.elements_read > 0
              ? static_cast<double>(cell.off.elements_read) /
                    cell.on.elements_read
              : 0.0;
      const double work_ratio =
          cell.on.elements > 0
              ? static_cast<double>(cell.off.elements) / cell.on.elements
              : 0.0;
      ablation_rows.push_back(
          {Fmt(tau, "%.1f"), algo.label,
           std::to_string(cell.off.elements_read),
           std::to_string(cell.on.elements_read), Fmt(read_ratio, "%.2f"),
           std::to_string(cell.off.elements), std::to_string(cell.on.elements),
           Fmt(work_ratio, "%.2f"), Fmt(cell.off.total_ms, "%.1f"),
           Fmt(cell.on.total_ms, "%.1f"), cell.identical ? "yes" : "NO"});
    }
    const uint64_t eng = engaged->Value() - engaged0;
    const uint64_t fall = fallthrough->Value() - fallthrough0;
    const uint64_t adm = admitted->Value() - admitted0;
    const uint64_t fps = fp->Value() - fp0;
    admission_rows.push_back(
        {Fmt(tau, "%.1f"), std::to_string(eng), std::to_string(fall),
         std::to_string(adm), std::to_string(fps),
         Fmt(adm > 0 ? 100.0 * fps / adm : 0.0, "%.2f")});
  }
  PrintTable("Prefilter ablation: elements read (gated) and total work, "
             "tier on vs off",
             {"tau", "algo", "read_off", "read_on", "read_ratio", "work_off",
              "work_on", "work_ratio", "ms_off", "ms_on", "identical"},
             ablation_rows);
  PrintTable(
      "Prefilter admission telemetry (per tau sweep, all algorithms)",
      {"tau", "engaged", "fallthrough", "admitted", "fp", "fp_pct"},
      admission_rows);

  if (!bench::WriteBenchReport("prefilter")) return 1;
  return 0;
}

}  // namespace
}  // namespace simsel

int main(int argc, char** argv) { return simsel::Main(argc, argv); }
