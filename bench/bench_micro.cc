// Micro-benchmarks of the substrate containers (google-benchmark): sorted
// length seeks, B+-tree seeks and scans,
// tokenization, and single-query latencies of the main algorithms.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "bench_util.h"
#include "btree/bplus_tree.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dynamic.h"
#include "eval/experiment.h"
#include "simd/kernels.h"
#include "storage/posting_store.h"
#include "text/tokenizer.h"

namespace simsel {
namespace {

std::vector<float> SortedLengths(size_t n) {
  Rng rng(1);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextDouble() * 100.0);
  std::sort(v.begin(), v.end());
  return v;
}

void BM_BinarySearchBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> lens = SortedLengths(n);
  Rng rng(2);
  for (auto _ : state) {
    float target = static_cast<float>(rng.NextDouble() * 100.0);
    benchmark::DoNotOptimize(
        std::lower_bound(lens.begin(), lens.end(), target));
  }
}
BENCHMARK(BM_BinarySearchBaseline)->Arg(1 << 16);

void BM_BPlusTreeSeek(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BPlusTree<uint64_t, float> tree;
  std::vector<std::pair<uint64_t, float>> items;
  for (size_t i = 0; i < n; ++i) items.push_back({i * 3, 0.0f});
  tree.Build(items);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.SeekGE(rng.NextBounded(n * 3)).Valid());
  }
}
BENCHMARK(BM_BPlusTreeSeek)->Arg(1 << 14)->Arg(1 << 20);

void BM_BPlusTreeScan1K(benchmark::State& state) {
  BPlusTree<uint64_t, float> tree;
  std::vector<std::pair<uint64_t, float>> items;
  for (size_t i = 0; i < (1 << 18); ++i) items.push_back({i, 0.0f});
  tree.Build(items);
  Rng rng(6);
  for (auto _ : state) {
    auto s = tree.SeekGE(rng.NextBounded(1 << 17));
    uint64_t sum = 0;
    for (int i = 0; i < 1000 && s.Valid(); ++i, s.Next()) sum += s.key();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BPlusTreeScan1K);

void BM_PostingStoreRead(benchmark::State& state) {
  BenchEnvOptions opts;
  opts.num_words = 20000;
  static BenchEnv* env = new BenchEnv(MakeBenchEnv(opts));
  static PostingStore* store =
      new PostingStore(PostingStore::Build(env->selector->index()));
  static TokenId token = [] {
    TokenId best = 0;
    const InvertedIndex& idx = env->selector->index();
    for (TokenId t = 0; t < idx.num_tokens(); ++t) {
      if (idx.ListSize(t) > idx.ListSize(best)) best = t;
    }
    return best;
  }();
  std::vector<uint32_t> ids(512);
  std::vector<float> lens(512);
  for (auto _ : state) {
    size_t n = store->ListSize(token);
    uint64_t sum = 0;
    for (size_t first = 0; first < n; first += 512) {
      size_t got = store->ReadBlock(token, first, 512, ids.data(),
                                    lens.data());
      for (size_t i = 0; i < got; ++i) sum += ids[i];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PostingStoreRead);

void BM_QGramTokenize(benchmark::State& state) {
  Tokenizer tok;
  std::string text = "similarity selection queries on string collections";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.TokenizeCounted(text));
  }
}
BENCHMARK(BM_QGramTokenize);

// End-to-end single-query latency per algorithm on a small environment.
// SIMSEL_BENCH_WORDS overrides the corpus size (the perf-smoke ctest run
// uses a tiny one so the kernels are exercised in the tier-1 loop).
struct QueryEnv {
  QueryEnv() {
    BenchEnvOptions opts;
    opts.num_words = 20000;
    if (const char* words = std::getenv("SIMSEL_BENCH_WORDS")) {
      int parsed = std::atoi(words);
      if (parsed > 0) opts.num_words = static_cast<size_t>(parsed);
    }
    opts.with_sql_baseline = true;
    env = MakeBenchEnv(opts);
    query = env.selector->Prepare(env.words[123]);
  }
  BenchEnv env;
  PreparedQuery query;
};

QueryEnv& GetQueryEnv() {
  static QueryEnv* env = new QueryEnv();
  return *env;
}

void BM_Query(benchmark::State& state, AlgorithmKind kind) {
  QueryEnv& qe = GetQueryEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qe.env.selector->SelectPrepared(qe.query, 0.8, kind, {}));
  }
}
BENCHMARK_CAPTURE(BM_Query, SF, AlgorithmKind::kSf);
BENCHMARK_CAPTURE(BM_Query, Hybrid, AlgorithmKind::kHybrid);
BENCHMARK_CAPTURE(BM_Query, iNRA, AlgorithmKind::kInra);
BENCHMARK_CAPTURE(BM_Query, iTA, AlgorithmKind::kIta);
BENCHMARK_CAPTURE(BM_Query, SQL, AlgorithmKind::kSql);
BENCHMARK_CAPTURE(BM_Query, SortById, AlgorithmKind::kSortById);

// Set-up cost: SimilaritySelector::Build over the bench corpus with the
// default options, which build no sketch tier (its signature pass and band
// tables are opt-in). The fastest build of the final run lands in the
// artifact's "Build time" table, which scripts/bench_compare.py gates
// like the query latencies: a shared machine only ever adds time, so the
// minimum is the stable statistic for a whole-build timing.
double g_build_ms = 0.0;

void BM_BuildSelector(benchmark::State& state) {
  const std::vector<std::string>& words = GetQueryEnv().env.words;
  const BuildOptions options;  // the bench env's q = 3 grams, no sketches
  double best_ms = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    SimilaritySelector sel = SimilaritySelector::Build(words, options);
    const double ms = timer.ElapsedMillis();
    if (best_ms == 0.0 || ms < best_ms) best_ms = ms;
    benchmark::DoNotOptimize(sel.prefilter());
  }
  g_build_ms = best_ms;
}
BENCHMARK(BM_BuildSelector)->Unit(benchmark::kMillisecond)->MinTime(3.0);

// Insert-while-query mixed scenario on the dynamic main+delta selector:
// each iteration appends one record and runs one query against the same
// DynamicSelector, exercising the append publish, the epoch pin and the
// per-token delta index on every query. The selector is recreated (outside
// the timed region) every 4096 iterations so the delta stays bounded and
// the per-iteration cost is stationary for bench_compare.py's gate.
void BM_QueryWithInserts(benchmark::State& state) {
  QueryEnv& qe = GetQueryEnv();
  const std::vector<std::string>& words = qe.env.words;
  std::unique_ptr<DynamicSelector> dyn;
  size_t i = 0;
  for (auto _ : state) {
    if (i % 4096 == 0) {
      state.PauseTiming();
      dyn = std::make_unique<DynamicSelector>(words);
      state.ResumeTiming();
    }
    dyn->AddRecord(words[(i * 13) % words.size()]);
    benchmark::DoNotOptimize(dyn->Select(words[123], 0.8));
    ++i;
  }
}
BENCHMARK(BM_QueryWithInserts);

}  // namespace
}  // namespace simsel

// Custom main (instead of BENCHMARK_MAIN) so the run also leaves a
// BENCH_micro.json artifact with the metrics-registry snapshot — the
// BM_Query benchmarks drive the instrumented selectors, so the registry
// holds per-algorithm latency histograms and access counters afterwards.
// The meta block additionally records which SIMD kernel variant the run
// dispatched and the serialized index sizes of both format versions, so
// artifacts stay comparable across machines and across the v2 -> v3
// compression change.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  {
    using simsel::bench::BenchReport;
    using simsel::bench::Fmt;
    if (simsel::g_build_ms > 0.0) {
      simsel::bench::PrintTable(
          "Build time", {"bench", "build_ms"},
          {{"BuildSelector/" +
                std::to_string(simsel::GetQueryEnv().env.words.size()) +
                "-words",
            Fmt(simsel::g_build_ms)}});
    }
    BenchReport& report = BenchReport::Global();
    report.SetMeta("simd_kernel", simsel::simd::Kernels().name);
    const simsel::InvertedIndex& index =
        simsel::GetQueryEnv().env.selector->index();
    simsel::IndexFileStats v2 =
        index.EncodedStats(simsel::InvertedIndex::kVersionLegacy);
    simsel::IndexFileStats v3 =
        index.EncodedStats(simsel::InvertedIndex::kVersionLatest);
    report.SetMeta("index_file_bytes_v2", std::to_string(v2.file_bytes));
    report.SetMeta("index_file_bytes_v3", std::to_string(v3.file_bytes));
    report.SetMeta("len_payload_bytes_v2",
                   std::to_string(v2.len_payload_bytes));
    report.SetMeta("len_payload_bytes_v3",
                   std::to_string(v3.len_payload_bytes));
    report.SetMeta("len_payload_v3_over_v2",
                   Fmt(static_cast<double>(v3.len_payload_bytes) /
                       static_cast<double>(v2.len_payload_bytes)));
  }
  simsel::bench::WriteBenchReport("micro");
  return 0;
}
