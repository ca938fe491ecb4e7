#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/internal.h"
#include "index/stats.h"
#include "test_util.h"

namespace simsel {
namespace {

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = new SimilaritySelector(
      testing_util::MakeSelector(400, /*seed=*/401, false));
  return *selector;
}

TEST(AdaptiveTest, AlwaysExact) {
  const SimilaritySelector& sel = Selector();
  for (double tau : {0.1, 0.4, 0.8, 0.95}) {
    for (SetId s = 0; s < 10; ++s) {
      PreparedQuery q = sel.Prepare(sel.collection().text(s));
      QueryResult expected =
          sel.SelectPrepared(q, tau, AlgorithmKind::kLinearScan, {});
      QueryResult actual = AdaptiveSelect(sel, q, tau);
      testing_util::ExpectSameMatches(expected.matches, actual.matches,
                                      "tau=" + std::to_string(tau));
    }
  }
}

TEST(AdaptiveTest, HighThresholdPicksSf) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(0));
  PlanDecision d = ChooseAlgorithm(sel.index(), sel.measure(), q, 0.9);
  EXPECT_EQ(d.kind, AlgorithmKind::kSf);
  EXPECT_LT(d.window_postings, d.total_postings);
}

TEST(AdaptiveTest, TinyThresholdPrefersFlatMerge) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(0));
  // tau = 0.05: window [0.05·len, 20·len] covers essentially every posting.
  PlanDecision d = ChooseAlgorithm(sel.index(), sel.measure(), q, 0.05);
  EXPECT_EQ(d.kind, AlgorithmKind::kSortById);
}

TEST(AdaptiveTest, WindowEstimateIsPlausible) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(21));
  PlanDecision d = ChooseAlgorithm(sel.index(), sel.measure(), q, 0.8);
  // The window count is exact: WindowSpan is inclusive, like Contains.
  internal::LengthWindow w = internal::ComputeLengthWindow(q, 0.8, true);
  uint64_t exact = 0, total = 0;
  for (TokenId t : q.tokens) {
    const float* lens = sel.index().LenLens(t);
    size_t n = sel.index().ListSize(t);
    total += n;
    for (size_t i = 0; i < n; ++i) exact += w.Contains(lens[i]);
  }
  EXPECT_EQ(d.total_postings, total);
  EXPECT_EQ(d.window_postings, exact);
}

TEST(IndexStatsTest, AggregatesAreConsistent) {
  const SimilaritySelector& sel = Selector();
  IndexStats stats = ComputeIndexStats(sel.index());
  EXPECT_EQ(stats.num_tokens, sel.index().num_tokens());
  EXPECT_EQ(stats.total_postings, sel.index().total_postings());
  EXPECT_GE(stats.non_empty_lists, 1u);
  EXPECT_LE(stats.min_list, stats.p50_list);
  EXPECT_LE(stats.p50_list, stats.p90_list);
  EXPECT_LE(stats.p90_list, stats.p99_list);
  EXPECT_LE(stats.p99_list, stats.max_list);
  EXPECT_GT(stats.avg_list, 0.0);
  EXPECT_LE(stats.min_set_length, stats.max_set_length);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(IndexStatsTest, EmptyIndex) {
  Tokenizer tok;
  Collection empty = Collection::Build({}, tok);
  IdfMeasure measure(empty);
  InvertedIndex index = InvertedIndex::Build(empty, measure);
  IndexStats stats = ComputeIndexStats(index);
  EXPECT_EQ(stats.total_postings, 0u);
  EXPECT_EQ(stats.non_empty_lists, 0u);
  EXPECT_EQ(stats.min_list, 0u);
}

}  // namespace
}  // namespace simsel
