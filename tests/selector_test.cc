#include <gtest/gtest.h>

#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeSelector;

TEST(SelectorTest, BuildAndQuery) {
  SimilaritySelector sel = MakeSelector(200, 161);
  QueryResult r = sel.Select(sel.collection().text(0), 0.8);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.counters.results, r.matches.size());
}

TEST(SelectorTest, DefaultAlgorithmIsSf) {
  SimilaritySelector sel = MakeSelector(200, 161);
  std::string query = sel.collection().text(5);
  QueryResult via_default = sel.Select(query, 0.7);
  QueryResult via_sf = sel.Select(query, 0.7, AlgorithmKind::kSf);
  testing_util::ExpectSameMatches(via_sf.matches, via_default.matches,
                                  "default-vs-sf");
}

TEST(SelectorTest, PrepareReuse) {
  SimilaritySelector sel = MakeSelector(200, 161);
  PreparedQuery q = sel.Prepare(sel.collection().text(9));
  QueryResult a = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, {});
  QueryResult b = sel.SelectPrepared(q, 0.8, AlgorithmKind::kInra, {});
  testing_util::ExpectSameMatches(a.matches, b.matches, "prepare-reuse");
}

TEST(SelectorTest, SizesReportPopulated) {
  SimilaritySelector sel = MakeSelector(200, 161, /*with_sql=*/true);
  IndexSizeReport sizes = sel.Sizes();
  EXPECT_GT(sizes.base_table, 0u);
  EXPECT_GT(sizes.inverted_lists, 0u);
  EXPECT_GT(sizes.skip_lists, 0u);
  EXPECT_GT(sizes.gram_table, 0u);
  EXPECT_GT(sizes.btree, 0u);
  // The q-gram decomposition explodes sizes relative to the base table
  // (Figure 5's main observation).
  EXPECT_GT(sizes.inverted_lists, sizes.base_table);
  // Skip lists are far smaller than the lists they summarize.
  EXPECT_LT(sizes.skip_lists, sizes.inverted_lists);
}

TEST(SelectorTest, SqlBaselineOptional) {
  SimilaritySelector sel = MakeSelector(100, 171, /*with_sql=*/false);
  EXPECT_EQ(sel.gram_table(), nullptr);
  IndexSizeReport sizes = sel.Sizes();
  EXPECT_EQ(sizes.gram_table, 0u);
  EXPECT_EQ(sizes.btree, 0u);
}

TEST(SelectorTest, RecordIdsMapToInput) {
  std::vector<std::string> records = {"apple", "banana", "cherry"};
  SimilaritySelector sel = SimilaritySelector::Build(records);
  for (SetId s = 0; s < 3; ++s) {
    EXPECT_EQ(sel.collection().text(s), records[s]);
  }
  QueryResult r = sel.Select("apple", 0.99);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].id, 0u);
}

TEST(SelectorTest, NearDuplicatesFound) {
  std::vector<std::string> records = {"jonathan smith", "jonathon smith",
                                      "completely different"};
  SimilaritySelector sel = SimilaritySelector::Build(records);
  QueryResult r = sel.Select("jonathan smith", 0.6);
  ASSERT_GE(r.matches.size(), 2u);
  EXPECT_EQ(r.matches[0].id, 0u);
  EXPECT_EQ(r.matches[1].id, 1u);
}

TEST(SelectorTest, WordTokenizerMode) {
  BuildOptions build;
  build.tokenizer.kind = TokenizerKind::kWord;
  std::vector<std::string> records = {"new york city", "york city hall",
                                      "los angeles"};
  SimilaritySelector sel = SimilaritySelector::Build(records, build);
  QueryResult r = sel.Select("new york city", 0.5);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches[0].id, 0u);
}

}  // namespace
}  // namespace simsel
