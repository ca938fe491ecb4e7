// Reproduces Figure 9: the effect of skip lists. Without them ("NSL"),
// algorithms using Length Boundedness must sequentially read and discard
// the list prefix below τ·len(q) instead of jumping over it.
//
// Usage: bench_fig9_skip_lists [--words=N] [--queries=N]

#include <cstdio>

#include "bench_util.h"
#include "gen/workload.h"

namespace simsel {
namespace {

using bench::AlgoSpec;
using bench::Fmt;
using bench::PrintTable;

int Main(int argc, char** argv) {
  BenchEnvOptions env_opts;
  env_opts.num_words = FlagValue(argc, argv, "words", 100000);
  env_opts.with_sql_baseline = false;
  const size_t num_queries = FlagValue(argc, argv, "queries", 100);
  std::printf("Building env over %zu word occurrences...\n",
              env_opts.num_words);
  BenchEnv env = MakeBenchEnv(env_opts);

  SelectOptions nsl;
  nsl.use_skip_index = false;
  const std::vector<AlgoSpec> algos = {
      {AlgorithmKind::kInra, {}, "iNRA"},
      {AlgorithmKind::kInra, nsl, "iNRA NSL"},
      {AlgorithmKind::kIta, {}, "iTA"},
      {AlgorithmKind::kIta, nsl, "iTA NSL"},
      {AlgorithmKind::kSf, {}, "SF"},
      {AlgorithmKind::kSf, nsl, "SF NSL"},
      {AlgorithmKind::kHybrid, {}, "Hybrid"},
      {AlgorithmKind::kHybrid, nsl, "Hybrid NSL"},
  };

  std::vector<std::string> columns = {"Sweep"};
  for (const AlgoSpec& a : algos) columns.push_back(a.label);

  std::vector<std::vector<std::string>> time_rows, read_rows;
  for (double tau : {0.6, 0.7, 0.8, 0.9}) {
    WorkloadOptions wo;
    wo.num_queries = num_queries;
    wo.min_tokens = 11;
    wo.max_tokens = 15;
    wo.seed = 1000;
    Workload wl =
        GenerateWordWorkload(env.words, env.selector->tokenizer(), wo);
    std::vector<WorkloadStats> stats =
        bench::RunSweep(*env.selector, wl, tau, algos);
    std::vector<std::string> trow = {"tau=" + Fmt(tau, "%.1f")};
    std::vector<std::string> rrow = trow;
    for (const WorkloadStats& s : stats) {
      trow.push_back(Fmt(s.avg_ms));
      rrow.push_back(Fmt(
          s.counters.elements_read / std::max<double>(1.0, s.num_queries),
          "%.0f"));
    }
    time_rows.push_back(std::move(trow));
    read_rows.push_back(std::move(rrow));
  }
  PrintTable("Figure 9: wall-clock ms/query, skip lists vs NSL", columns,
             time_rows);
  PrintTable("Figure 9 (detail): elements read per query", columns,
             read_rows);

  std::printf(
      "\nExpected shape (paper): skip lists give roughly a 2x improvement "
      "for every LB algorithm (growing with query size), at a tiny space "
      "cost next to the lists themselves.\n");
  bench::WriteBenchReport("fig9_skip_lists");
  return 0;
}

}  // namespace
}  // namespace simsel

int main(int argc, char** argv) { return simsel::Main(argc, argv); }
