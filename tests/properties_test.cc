#include <gtest/gtest.h>

#include <cmath>

#include "core/internal.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeQueries;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector =
      new SimilaritySelector(MakeSelector(500, /*seed=*/51));
  return *selector;
}

std::vector<std::string> CollectionQueries(size_t n, uint64_t seed) {
  std::vector<std::string> texts;
  for (SetId s = 0; s < Selector().collection().size(); ++s) {
    texts.push_back(Selector().collection().text(s));
  }
  return MakeQueries(texts, n, seed);
}

// --- Theorem 1: Length Boundedness. ---

TEST(LengthBoundednessTest, BoundIsTightForContainment) {
  // Case q ∩ s = s (s ⊆ q): I = len(s)/len(q), so a set at exactly
  // τ·len(q) achieves τ. Verify the subset-score identity on real data.
  const SimilaritySelector& sel = Selector();
  const Collection& coll = sel.collection();
  const IdfMeasure& measure = sel.measure();
  size_t checked = 0;
  for (SetId s = 0; s < coll.size() && checked < 50; ++s) {
    PreparedQuery q = sel.Prepare(coll.text(s));
    // The set vs itself: I = len(s)²/(len(s)len(q)).
    double expect = static_cast<double>(measure.set_length(s)) /
                    q.length;
    if (std::abs(measure.Score(q, s) - std::min(1.0, expect)) < 1e-5) {
      ++checked;
    }
  }
  EXPECT_GE(checked, 50u);
}

TEST(LengthBoundednessTest, WindowDegeneratesAtTauOne) {
  using internal::ComputeLengthWindow;
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(0));
  auto w = ComputeLengthWindow(q, 1.0, true);
  // lo ≈ hi ≈ len(q): only equal-length sets survive.
  EXPECT_NEAR(w.lo, q.length, q.length * 1e-6);
  EXPECT_NEAR(w.hi, q.length, q.length * 1e-6);
  EXPECT_LE(w.lo, w.hi);
}

TEST(LengthBoundednessTest, DisabledWindowIsInfinite) {
  using internal::ComputeLengthWindow;
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(0));
  auto w = ComputeLengthWindow(q, 0.8, false);
  EXPECT_EQ(w.lo, 0.0f);
  EXPECT_TRUE(std::isinf(w.hi));
}

// --- Property 1: Order Preservation (via the list sort order). ---

TEST(OrderPreservationTest, ContributionsDecreaseAlongEveryList) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(42));
  for (size_t i = 0; i < q.tokens.size(); ++i) {
    const InvertedIndex& idx = sel.index();
    TokenId t = q.tokens[i];
    const float* lens = idx.LenLens(t);
    for (size_t j = 1; j < idx.ListSize(t); ++j) {
      double w_prev = sel.measure().Contribution(q, i, lens[j - 1]);
      double w_cur = sel.measure().Contribution(q, i, lens[j]);
      ASSERT_GE(w_prev, w_cur);
    }
  }
}

TEST(OrderPreservationTest, CrossListOrderAgrees) {
  // If w_k(s) <= w_k(r) on one list then the same holds on every list the
  // two sets share, because sort order is by the (constant) set length.
  const SimilaritySelector& sel = Selector();
  const IdfMeasure& m = sel.measure();
  PreparedQuery q = sel.Prepare(sel.collection().text(10));
  if (q.tokens.size() < 2) GTEST_SKIP();
  for (SetId a = 0; a < 50; ++a) {
    for (SetId b = a + 1; b < 50; ++b) {
      bool le0 = m.Contribution(q, 0, m.set_length(a)) <=
                 m.Contribution(q, 0, m.set_length(b));
      bool le1 = m.Contribution(q, 1, m.set_length(a)) <=
                 m.Contribution(q, 1, m.set_length(b));
      EXPECT_EQ(le0, le1);
    }
  }
}

// --- Equation 2: λ cutoffs decrease along the idf-sorted lists. ---

TEST(LambdaTest, CutoffsAreMonotonicallyDecreasing) {
  const SimilaritySelector& sel = Selector();
  for (const std::string& query : CollectionQueries(10, 71)) {
    PreparedQuery q = sel.Prepare(query);
    if (q.tokens.empty() || q.length == 0.0) continue;
    // Sort weights descending (SF's processing order).
    std::vector<double> w = q.weights;
    std::sort(w.begin(), w.end(), std::greater<>());
    double tau = 0.8;
    double suffix = 0;
    for (double x : w) suffix += x;
    double prev_lambda = 1e300;
    for (size_t k = 0; k < w.size(); ++k) {
      double lambda = suffix / (tau * q.length);
      EXPECT_LE(lambda, prev_lambda * (1 + 1e-12));
      prev_lambda = lambda;
      suffix -= w[k];
    }
  }
}

// --- Lemma-4 style access comparisons. ---

TEST(AccessComparisonTest, HybridStopRuleFiresOnSomeInstance) {
  // The max_len(C) + λ₁ stop only helps when λ₁ < len(q)/τ, i.e. when some
  // query tokens are unknown; modified queries provide that. The paper
  // expects Hybrid to win "only in very special cases" — assert the
  // machinery is alive (at least one strict win) and never harmful.
  const SimilaritySelector& sel = Selector();
  Rng rng(5);
  size_t strict_wins = 0;
  // Kernel elements_read comparison: the sketch tier answers some of these
  // instances without reading lists at all, so it is pinned off.
  SelectOptions kernels;
  kernels.prefilter = false;
  for (int i = 0; i < 60; ++i) {
    std::string base =
        sel.collection().text(static_cast<SetId>(rng.NextBounded(
            sel.collection().size())));
    PreparedQuery q = sel.Prepare(ApplyModifications(base, 2, &rng));
    if (q.unknown_tokens == 0) continue;
    uint64_t hybrid =
        sel.SelectPrepared(q, 0.6, AlgorithmKind::kHybrid, kernels)
            .counters.elements_read;
    uint64_t inra =
        sel.SelectPrepared(q, 0.6, AlgorithmKind::kInra, kernels)
            .counters.elements_read;
    ASSERT_LE(hybrid, inra);
    if (hybrid < inra) ++strict_wins;
  }
  EXPECT_GE(strict_wins, 1u);
}

TEST(AccessComparisonTest, ImprovedAlgorithmsReadNoMoreThanClassicNra) {
  const SimilaritySelector& sel = Selector();
  uint64_t nra_total = 0, inra_total = 0, sf_total = 0;
  const double tau = 0.8;
  for (const std::string& query : CollectionQueries(20, 91)) {
    PreparedQuery q = sel.Prepare(query);
    nra_total +=
        sel.SelectPrepared(q, tau, AlgorithmKind::kNra, {}).counters
            .elements_read;
    inra_total +=
        sel.SelectPrepared(q, tau, AlgorithmKind::kInra, {}).counters
            .elements_read;
    sf_total += sel.SelectPrepared(q, tau, AlgorithmKind::kSf, {}).counters
                    .elements_read;
  }
  EXPECT_LE(inra_total, nra_total);
  EXPECT_LE(sf_total, nra_total);
}

TEST(AccessComparisonTest, SortByIdReadsEverything) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(5));
  QueryResult r = sel.SelectPrepared(q, 0.9, AlgorithmKind::kSortById, {});
  EXPECT_EQ(r.counters.elements_read, r.counters.elements_total);
  EXPECT_DOUBLE_EQ(r.counters.PruningPower(), 0.0);
}

TEST(AccessComparisonTest, LengthBoundingImprovesPruning) {
  const SimilaritySelector& sel = Selector();
  const double tau = 0.85;
  uint64_t with_lb = 0, without_lb = 0;
  SelectOptions nlb;
  nlb.length_bounding = false;
  for (const std::string& query : CollectionQueries(20, 101)) {
    PreparedQuery q = sel.Prepare(query);
    with_lb += sel.SelectPrepared(q, tau, AlgorithmKind::kSf, {})
                   .counters.elements_read;
    without_lb += sel.SelectPrepared(q, tau, AlgorithmKind::kSf, nlb)
                      .counters.elements_read;
  }
  EXPECT_LE(with_lb, without_lb);
}

TEST(AccessComparisonTest, HighThresholdPrunesMore) {
  const SimilaritySelector& sel = Selector();
  uint64_t low = 0, high = 0;
  for (const std::string& query : CollectionQueries(20, 111)) {
    PreparedQuery q = sel.Prepare(query);
    low += sel.SelectPrepared(q, 0.5, AlgorithmKind::kSf, {})
               .counters.elements_read;
    high += sel.SelectPrepared(q, 0.95, AlgorithmKind::kSf, {})
                .counters.elements_read;
  }
  EXPECT_LE(high, low);
}

}  // namespace
}  // namespace simsel
