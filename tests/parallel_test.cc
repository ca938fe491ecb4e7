#include <gtest/gtest.h>

#include <string>

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
