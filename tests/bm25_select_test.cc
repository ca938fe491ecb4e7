#include <gtest/gtest.h>

#include "core/bm25_select.h"
#include "core/linear_scan.h"
#include "test_util.h"

namespace simsel {
namespace {

struct Fixture {
  explicit Fixture(bool drop_tf) : tokenizer(TokenizerOptions{.q = 3}) {
    CorpusOptions co;
    co.num_records = 250;
    co.vocab_size = 50;  // repeats -> real tf structure
    co.min_words = 1;
    co.max_words = 4;
    co.seed = 91;
    records = GenerateCorpus(co).records;
    collection =
        std::make_unique<Collection>(Collection::Build(records, tokenizer));
    measure = std::make_unique<Bm25Measure>(*collection, drop_tf);
    selector = std::make_unique<Bm25Selector>(*measure);
  }

  PreparedQuery Prepare(const std::string& text) const {
    return measure->PrepareQuery(tokenizer.TokenizeCounted(text));
  }

  Tokenizer tokenizer;
  std::vector<std::string> records;
  std::unique_ptr<Collection> collection;
  std::unique_ptr<Bm25Measure> measure;
  std::unique_ptr<Bm25Selector> selector;
};

class Bm25SelectParam
    : public ::testing::TestWithParam<std::tuple<bool, double>> {};

TEST_P(Bm25SelectParam, MatchesLinearScan) {
  const auto& [drop_tf, tau] = GetParam();
  Fixture f(drop_tf);
  std::vector<std::string> queries =
      testing_util::MakeQueries(f.records, 20, 97);
  for (const std::string& query : queries) {
    PreparedQuery q = f.Prepare(query);
    QueryResult expected = LinearScanSelect(*f.measure, *f.collection, q, tau);
    QueryResult actual = f.selector->Select(q, tau);
    testing_util::ExpectSameMatches(
        expected.matches, actual.matches,
        std::string(f.measure->name()) + " tau=" + std::to_string(tau));
  }
}

// BM25 scores are unnormalized; thresholds span the useful range for this
// corpus (exact matches score ~15-40 here).
INSTANTIATE_TEST_SUITE_P(
    Flavors, Bm25SelectParam,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2.0, 8.0, 20.0)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "prime" : "bm25") + "_tau" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(Bm25SelectTest, ContributionBoundDecreasesWithDocLength) {
  Fixture f(false);
  PreparedQuery q = f.Prepare(f.records[0]);
  ASSERT_FALSE(q.tokens.empty());
  double prev = std::numeric_limits<double>::infinity();
  for (double d : {1.0, 5.0, 20.0, 100.0}) {
    double bound = f.selector->ContributionBound(q, 0, d);
    EXPECT_LT(bound, prev);
    prev = bound;
  }
}

TEST(Bm25SelectTest, BoundDominatesActualContribution) {
  Fixture f(false);
  PreparedQuery q = f.Prepare(f.records[3]);
  // For every set, the summed per-list bounds dominate the exact score.
  for (SetId s = 0; s < 50; ++s) {
    double bound = 0.0;
    for (size_t i = 0; i < q.tokens.size(); ++i) {
      bound += f.selector->ContributionBound(q, i, f.measure->doc_length(s));
    }
    EXPECT_GE(bound * (1 + 1e-9), f.measure->Score(q, s)) << s;
  }
}

TEST(Bm25SelectTest, PrunesAtHighThresholds) {
  Fixture f(false);
  PreparedQuery q = f.Prepare(f.records[5]);
  QueryResult strict = f.selector->Select(q, 25.0);
  QueryResult loose = f.selector->Select(q, 1.0);
  EXPECT_LE(strict.counters.rows_scanned, loose.counters.rows_scanned);
  EXPECT_EQ(strict.counters.elements_read + strict.counters.elements_skipped,
            strict.counters.elements_total);
}

TEST(Bm25SelectTest, EmptyQuery) {
  Fixture f(false);
  PreparedQuery q = f.Prepare("");
  EXPECT_TRUE(f.selector->Select(q, 1.0).matches.empty());
}

TEST(Bm25SelectTest, PostingsOrderedByDocLength) {
  Fixture f(false);
  const InvertedIndex& idx = f.selector->index();
  for (TokenId t = 0; t < idx.num_tokens(); ++t) {
    const float* dls = idx.LenLens(t);
    for (size_t i = 1; i < idx.ListSize(t); ++i) {
      EXPECT_LE(dls[i - 1], dls[i]);
    }
  }
}

TEST(Bm25SelectTest, HonorsSelectOptions) {
  for (bool drop_tf : {false, true}) {
    Fixture f(drop_tf);
    std::vector<PreparedQuery> queries;
    for (const std::string& query :
         testing_util::MakeQueries(f.records, 20, 5)) {
      queries.push_back(f.Prepare(query));
    }
    testing_util::ExpectHonorsSelectOptions(*f.selector, *f.measure,
                                            *f.collection, queries, 2.0);
  }
}

}  // namespace
}  // namespace simsel
