#include <gtest/gtest.h>

#include <string>

#include "core/linear_scan.h"
#include "core/parallel.h"
#include "obs/trace.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeQueries;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector =
      new SimilaritySelector(MakeSelector(400, /*seed=*/201, false));
  return *selector;
}

TEST(BatchSelectTest, MatchesSequentialExecution) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> texts;
  for (SetId s = 0; s < sel.collection().size(); ++s) {
    texts.push_back(sel.collection().text(s));
  }
  std::vector<std::string> queries = MakeQueries(texts, 40, 211);
  ThreadPool pool(4);
  std::vector<QueryResult> parallel =
      BatchSelect(sel, queries, 0.7, AlgorithmKind::kSf, {}, &pool);
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult sequential = sel.Select(queries[i], 0.7, AlgorithmKind::kSf);
    ExpectSameMatches(sequential.matches, parallel[i].matches,
                      "batch query " + std::to_string(i));
  }
}

TEST(BatchSelectTest, WorksWithEveryAlgorithm) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> queries = {sel.collection().text(0),
                                      sel.collection().text(1)};
  ThreadPool pool(2);
  for (AlgorithmKind kind :
       {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid,
        AlgorithmKind::kIta, AlgorithmKind::kSortById}) {
    std::vector<QueryResult> results =
        BatchSelect(sel, queries, 0.8, kind, {}, &pool);
    EXPECT_FALSE(results[0].matches.empty()) << AlgorithmKindName(kind);
    EXPECT_FALSE(results[1].matches.empty()) << AlgorithmKindName(kind);
  }
}

#ifndef SIMSEL_DISABLE_TRACING
TEST(BatchSelectTest, TracedBatchReturnsStitchedSpanTrees) {
  // Regression: batch workers used to run traceless (the caller's trace was
  // stripped for thread safety); now each worker records a private child
  // trace that is stitched into the caller's at the join.
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> queries = {sel.collection().text(0),
                                      sel.collection().text(5),
                                      sel.collection().text(9)};
  ThreadPool pool(4);
  obs::QueryTrace trace;
  SelectOptions options;
  options.trace = &trace;
  std::vector<QueryResult> results =
      BatchSelect(sel, queries, 0.7, AlgorithmKind::kSf, options, &pool);
  ASSERT_EQ(results.size(), queries.size());
  ASSERT_FALSE(trace.empty());
  const std::vector<obs::TraceSpan>& spans = trace.spans();
  EXPECT_STREQ(spans[0].name, "batch");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].items, queries.size());
  // One batch_query[i] wrapper per query in query order, each with at least
  // one worker-recorded span beneath it; every result reports the stitched
  // parent trace.
  std::string structure = trace.StructureString();
  size_t pos = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string wrapper = "1:batch_query[" + std::to_string(i) + "]\n";
    size_t at = structure.find(wrapper, pos);
    ASSERT_NE(at, std::string::npos) << structure;
    pos = at + wrapper.size();
    EXPECT_EQ(results[i].trace, &trace);
  }
  size_t worker_spans = 0;
  for (const obs::TraceSpan& s : spans) worker_spans += (s.depth == 2);
  EXPECT_GE(worker_spans, queries.size());
  // The stitched shape is byte-stable run to run.
  obs::QueryTrace again;
  SelectOptions repeat;
  repeat.trace = &again;
  BatchSelect(sel, queries, 0.7, AlgorithmKind::kSf, repeat, &pool);
  EXPECT_EQ(trace.StructureString(), again.StructureString());
}
#endif  // SIMSEL_DISABLE_TRACING

TEST(ParallelLinearScanTest, ExactlyMatchesSerialScan) {
  const SimilaritySelector& sel = Selector();
  ThreadPool pool(4);
  for (double tau : {0.3, 0.7, 0.9}) {
    for (SetId s = 0; s < 10; ++s) {
      PreparedQuery q = sel.Prepare(sel.collection().text(s));
      QueryResult serial =
          LinearScanSelect(sel.measure(), sel.collection(), q, tau);
      QueryResult parallel = ParallelLinearScanSelect(
          sel.measure(), sel.collection(), q, tau, &pool);
      ExpectSameMatches(serial.matches, parallel.matches,
                        "tau=" + std::to_string(tau));
      EXPECT_EQ(parallel.counters.rows_scanned, sel.collection().size());
    }
  }
}

TEST(ParallelLinearScanTest, MorePoolThreadsThanSets) {
  std::vector<std::string> records = {"alpha", "beta"};
  SimilaritySelector sel = SimilaritySelector::Build(records);
  ThreadPool pool(8);
  PreparedQuery q = sel.Prepare("alpha");
  QueryResult r =
      ParallelLinearScanSelect(sel.measure(), sel.collection(), q, 0.9, &pool);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].id, 0u);
}

TEST(ParallelSortByIdTest, MatchesSequentialMerge) {
  const SimilaritySelector& sel = Selector();
  for (size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (double tau : {0.5, 0.8, 0.9}) {
      for (SetId s = 0; s < 10; ++s) {
        PreparedQuery q = sel.Prepare(sel.collection().text(s * 11));
        QueryResult serial =
            sel.SelectPrepared(q, tau, AlgorithmKind::kSortById, {});
        QueryResult parallel =
            ParallelSortByIdSelect(sel.index(), sel.measure(), q, tau, &pool);
        ExpectSameMatches(serial.matches, parallel.matches,
                          "threads=" + std::to_string(threads));
        // The shards cover every posting exactly once, and their per-range
        // page charges add up to the serial per-list ⌈size/P⌉.
        EXPECT_EQ(parallel.counters.elements_read,
                  serial.counters.elements_read);
        EXPECT_EQ(parallel.counters.elements_total,
                  serial.counters.elements_total);
        EXPECT_EQ(parallel.counters.seq_page_reads,
                  serial.counters.seq_page_reads);
      }
    }
  }
}

TEST(ParallelSortByIdTest, EmptyQueryAndNoMatches) {
  const SimilaritySelector& sel = Selector();
  ThreadPool pool(4);
  PreparedQuery empty = sel.Prepare("");
  EXPECT_TRUE(ParallelSortByIdSelect(sel.index(), sel.measure(), empty, 0.5,
                                     &pool)
                  .matches.empty());
  PreparedQuery q = sel.Prepare(sel.collection().text(0));
  EXPECT_TRUE(ParallelSortByIdSelect(sel.index(), sel.measure(), q, 1.5,
                                     &pool)
                  .matches.empty());
}

TEST(SortByIdShardRangeTest, LastShardReachesPastMaxUint32WithoutWrap) {
  // Regression: the shard bounds were computed in uint32_t, so the last
  // shard's exclusive bound max_id + 1 wrapped to 0 when max_id was
  // UINT32_MAX — the shard became empty and its matches were dropped.
  for (size_t shards : {1u, 2u, 7u, 16u}) {
    auto [lo, hi] =
        internal::SortByIdShardRange(UINT32_MAX, shards, shards - 1);
    EXPECT_EQ(hi, static_cast<uint64_t>(UINT32_MAX) + 1) << shards;
    EXPECT_LT(lo, hi) << shards;  // the boundary id itself is covered
  }
}

TEST(SortByIdShardRangeTest, ShardsPartitionTheIdSpace) {
  for (uint32_t max_id : {0u, 1u, 7u, 1000u, UINT32_MAX}) {
    for (size_t shards : {1u, 2u, 3u, 8u, 16u}) {
      uint64_t prev = 0;
      for (size_t s = 0; s < shards; ++s) {
        auto [lo, hi] = internal::SortByIdShardRange(max_id, shards, s);
        EXPECT_EQ(lo, prev) << "max_id=" << max_id << " shard " << s;
        EXPECT_LE(lo, hi) << "max_id=" << max_id << " shard " << s;
        prev = hi;
      }
      EXPECT_EQ(prev, static_cast<uint64_t>(max_id) + 1)
          << "max_id=" << max_id << " shards=" << shards;
    }
  }
}

TEST(SortByIdShardRangeTest, MoreShardsThanIdsYieldsEmptyTailRanges) {
  // max_id = 1 with 4 shards: the tail shards must come out empty
  // (lo == hi), never inverted — an inverted range underflowed the
  // elements_total accounting before the bounds were clamped.
  for (size_t s = 0; s < 4; ++s) {
    auto [lo, hi] = internal::SortByIdShardRange(1, 4, s);
    EXPECT_LE(lo, hi) << "shard " << s;
    EXPECT_LE(hi, 2u) << "shard " << s;
  }
}

TEST(ConcurrencyTest, ConstQueriesAreThreadCompatible) {
  // Hammer one selector from many threads; all runs must agree with the
  // single-threaded answer (the selector is never mutated after Build).
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(13));
  QueryResult expected = sel.SelectPrepared(q, 0.7, AlgorithmKind::kSf, {});
  ThreadPool pool(8);
  std::vector<QueryResult> results(64);
  ParallelFor(&pool, results.size(), [&](size_t i) {
    AlgorithmKind kind = (i % 2 == 0) ? AlgorithmKind::kSf
                                      : AlgorithmKind::kHybrid;
    results[i] = sel.SelectPrepared(q, 0.7, kind, {});
  });
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectSameMatches(expected.matches, results[i].matches,
                      "thread result " + std::to_string(i));
  }
}

}  // namespace
}  // namespace simsel
