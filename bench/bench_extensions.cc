// Extension benchmarks — everything beyond the paper's own figures:
//   (1) the prefix-filter baseline (Related Work [2]) vs the paper's
//       algorithms;
//   (2) TF/IDF selection with boosted bounds (Section IV remark) vs a
//       linear scan;
//   (3) top-k selection (the paper's future work) vs exhaustive top-k;
//   (4) the adaptive planner's decisions across thresholds;
//   (5) batch-parallel throughput (future work: parallel versions).
//
// Usage: bench_extensions [--words=N] [--queries=N]

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "core/adaptive.h"
#include "core/linear_scan.h"
#include "core/parallel.h"
#include "core/tfidf_select.h"
#include "gen/workload.h"
#include "sim/tfidf.h"

namespace simsel {
namespace {

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
  const SimilaritySelector& sel = *env.selector;

  WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.min_tokens = 11;
  wo.max_tokens = 15;
  wo.seed = 1000;
  Workload wl = GenerateWordWorkload(env.words, sel.tokenizer(), wo);

  // (1) Prefix filter vs the paper's algorithms.
  {
    std::vector<bench::AlgoSpec> algos = {
        {AlgorithmKind::kSf, {}, "SF"},
        {AlgorithmKind::kInra, {}, "iNRA"},
        {AlgorithmKind::kPrefixFilter, {}, "PrefixFilter"},
    };
    std::vector<std::vector<std::string>> rows;
    for (double tau : {0.6, 0.8, 0.9}) {
      std::vector<WorkloadStats> stats =
          bench::RunSweep(sel, wl, tau, algos);
      std::vector<std::string> row = {"tau=" + Fmt(tau, "%.1f")};
      for (const WorkloadStats& s : stats) {
        row.push_back(Fmt(s.avg_ms));
        row.push_back(Fmt(100.0 * s.pruning_power, "%.1f"));
      }
      rows.push_back(std::move(row));
    }
    PrintTable("Extension 1: prefix-filter baseline (ms | pruned %)",
               {"Sweep", "SF ms", "SF %", "iNRA ms", "iNRA %", "PF ms",
                "PF %"},
               rows);
  }

  // (2) TF/IDF selection via boosted bounds.
  {
    Tokenizer tokenizer = sel.tokenizer();
    TfIdfMeasure tfidf(sel.collection());
    TfIdfSelector tfidf_sel(tfidf);
    std::vector<std::vector<std::string>> rows;
    for (double tau : {0.6, 0.8, 0.9}) {
      double sel_ms = 0, scan_ms = 0, verified = 0, results = 0;
      for (const std::string& query : wl.queries) {
        PreparedQuery q =
            tfidf.PrepareQuery(tokenizer.TokenizeCounted(query));
        WallTimer t1;
        QueryResult fast = tfidf_sel.Select(q, tau);
        sel_ms += t1.ElapsedMillis();
        WallTimer t2;
        QueryResult slow = LinearScanSelect(tfidf, sel.collection(), q, tau);
        scan_ms += t2.ElapsedMillis();
        verified += static_cast<double>(fast.counters.rows_scanned);
        results += static_cast<double>(slow.matches.size());
      }
      double n = static_cast<double>(wl.queries.size());
      rows.push_back({"tau=" + Fmt(tau, "%.1f"), Fmt(sel_ms / n),
                      Fmt(scan_ms / n), Fmt(verified / n, "%.1f"),
                      Fmt(results / n, "%.1f")});
    }
    PrintTable("Extension 2: TF/IDF boosted-bounds selection",
               {"Sweep", "boosted ms", "scan ms", "verified/q", "results/q"},
               rows);
  }

  // (3) Top-k vs exhaustive top-k.
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t k : {1u, 10u, 50u}) {
      double topk_ms = 0, scan_ms = 0, read_frac = 0;
      for (const std::string& query : wl.queries) {
        WallTimer t1;
        QueryResult fast = sel.SelectTopK(query, k);
        topk_ms += t1.ElapsedMillis();
        PreparedQuery q = sel.Prepare(query);
        WallTimer t2;
        LinearScanTopK(sel.measure(), sel.collection(), q, k);
        scan_ms += t2.ElapsedMillis();
        if (fast.counters.elements_total > 0) {
          read_frac += static_cast<double>(fast.counters.elements_read) /
                       static_cast<double>(fast.counters.elements_total);
        }
      }
      double n = static_cast<double>(wl.queries.size());
      rows.push_back({"k=" + std::to_string(k), Fmt(topk_ms / n),
                      Fmt(scan_ms / n), Fmt(100.0 * read_frac / n, "%.1f")});
    }
    PrintTable("Extension 3: top-k selection",
               {"Sweep", "topk ms", "scan ms", "% lists read"}, rows);
    std::printf(
        "Top-k runs SF at a falling tau until a run returns k matches; every\n"
        "run re-reads the query's lists, so %% lists read can exceed 100.\n");
  }

  // (4) Adaptive planner decisions.
  {
    std::vector<std::vector<std::string>> rows;
    for (double tau : {0.05, 0.2, 0.5, 0.8, 0.95}) {
      size_t sf = 0, merge = 0;
      for (const std::string& query : wl.queries) {
        PreparedQuery q = sel.Prepare(query);
        PlanDecision d = ChooseAlgorithm(sel.index(), sel.measure(), q, tau);
        if (d.kind == AlgorithmKind::kSortById) {
          ++merge;
        } else {
          ++sf;
        }
      }
      rows.push_back({"tau=" + Fmt(tau, "%.2f"), std::to_string(sf),
                      std::to_string(merge)});
    }
    PrintTable("Extension 4: adaptive planner choices",
               {"Sweep", "SF", "sort-by-id"}, rows);
  }

  // (5) Batch-parallel throughput.
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      WallTimer timer;
      BatchSelect(sel, wl.queries, 0.8, AlgorithmKind::kSf, {}, &pool);
      double secs = timer.ElapsedSeconds();
      rows.push_back(
          {std::to_string(threads) + " threads",
           Fmt(wl.queries.size() / secs, "%.0f"), Fmt(secs * 1e3, "%.1f")});
    }
    PrintTable("Extension 5: batch throughput (SF, tau=0.8)",
               {"Pool", "queries/s", "total ms"}, rows);
  }
  bench::WriteBenchReport("extensions");
  return 0;
}

}  // namespace
}  // namespace simsel

int main(int argc, char** argv) { return simsel::Main(argc, argv); }
