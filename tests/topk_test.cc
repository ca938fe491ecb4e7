#include <gtest/gtest.h>

#include "core/topk.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeQueries;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector =
      new SimilaritySelector(MakeSelector(400, /*seed=*/121, false));
  return *selector;
}

// Linear top-k truncated to positive scores, the universe TopKSelect can see.
std::vector<Match> ReferenceTopK(const PreparedQuery& q, size_t k) {
  QueryResult r = LinearScanTopK(Selector().measure(),
                                 Selector().collection(), q, k);
  std::vector<Match> out;
  for (const Match& m : r.matches) {
    if (m.score > 0.0) out.push_back(m);
  }
  return out;
}

class TopKParam : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKParam, MatchesLinearScanTopK) {
  const size_t k = GetParam();
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> texts;
  for (SetId s = 0; s < sel.collection().size(); ++s) {
    texts.push_back(sel.collection().text(s));
  }
  for (const std::string& query : MakeQueries(texts, 15, 131)) {
    PreparedQuery q = sel.Prepare(query);
    std::vector<Match> expected = ReferenceTopK(q, k);
    QueryResult actual = TopKSelect(sel.index(), sel.measure(), q, k, {});
    testing_util::ExpectSameMatches(expected, actual.matches,
                                    "topk k=" + std::to_string(k) +
                                        " q=" + query);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKParam, ::testing::Values(1, 3, 10, 50),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(TopKTest, AblationsStayExact) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(17));
  std::vector<Match> expected = ReferenceTopK(q, 5);
  for (int variant = 0; variant < 3; ++variant) {
    SelectOptions o;
    if (variant == 0) o.length_bounding = false;
    if (variant == 1) o.order_preservation = false;
    if (variant == 2) o.magnitude_bound = false;
    QueryResult actual = TopKSelect(sel.index(), sel.measure(), q, 5, o);
    testing_util::ExpectSameMatches(expected, actual.matches,
                                    "variant " + std::to_string(variant));
  }
}

TEST(TopKTest, RankOrderIsScoreDescending) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(3));
  QueryResult r = TopKSelect(sel.index(), sel.measure(), q, 20, {});
  for (size_t i = 1; i < r.matches.size(); ++i) {
    EXPECT_TRUE(r.matches[i - 1].score > r.matches[i].score ||
                (r.matches[i - 1].score == r.matches[i].score &&
                 r.matches[i - 1].id < r.matches[i].id));
  }
}

TEST(TopKTest, TopOneIsSelfForExactQuery) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(29));
  QueryResult r = TopKSelect(sel.index(), sel.measure(), q, 1, {});
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_NEAR(r.matches[0].score, 1.0, 1e-5);
}

TEST(TopKTest, KZeroAndEmptyQuery) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(1));
  EXPECT_TRUE(TopKSelect(sel.index(), sel.measure(), q, 0, {}).matches.empty());
  PreparedQuery empty = sel.Prepare("");
  EXPECT_TRUE(
      TopKSelect(sel.index(), sel.measure(), empty, 5, {}).matches.empty());
}

TEST(TopKTest, PrunesRelativeToFullScan) {
  // With a small k the dynamic threshold rises quickly; the algorithm
  // should not read every posting of every list.
  const SimilaritySelector& sel = Selector();
  uint64_t read = 0, total = 0;
  std::vector<std::string> texts;
  for (SetId s = 0; s < sel.collection().size(); ++s) {
    texts.push_back(sel.collection().text(s));
  }
  for (const std::string& query : MakeQueries(texts, 10, 141)) {
    PreparedQuery q = sel.Prepare(query);
    QueryResult r = TopKSelect(sel.index(), sel.measure(), q, 1, {});
    read += r.counters.elements_read;
    total += r.counters.elements_total;
  }
  EXPECT_LT(read, total);
}

TEST(TopKTest, FacadeEntryPoint) {
  const SimilaritySelector& sel = Selector();
  QueryResult r = sel.SelectTopK(sel.collection().text(2), 3);
  EXPECT_LE(r.matches.size(), 3u);
  EXPECT_FALSE(r.matches.empty());
}

}  // namespace
}  // namespace simsel
