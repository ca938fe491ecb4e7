#include <gtest/gtest.h>

#include "core/linear_scan.h"
#include "core/tfidf_select.h"
#include "test_util.h"

namespace simsel {
namespace {

// A corpus with real multiset structure (repeated words within records) so
// tf components matter.
struct Fixture {
  Fixture() : tokenizer(TokenizerOptions{.q = 3}) {
    CorpusOptions co;
    co.num_records = 300;
    co.vocab_size = 60;  // small vocabulary -> records repeat words
    co.min_words = 1;
    co.max_words = 4;
    co.seed = 71;
    Corpus corpus = GenerateCorpus(co);
    records = corpus.records;
    collection = std::make_unique<Collection>(
        Collection::Build(records, tokenizer));
    measure = std::make_unique<TfIdfMeasure>(*collection);
    selector = std::make_unique<TfIdfSelector>(*measure);
  }

  PreparedQuery Prepare(const std::string& text) const {
    return measure->PrepareQuery(tokenizer.TokenizeCounted(text));
  }

  Tokenizer tokenizer;
  std::vector<std::string> records;
  std::unique_ptr<Collection> collection;
  std::unique_ptr<TfIdfMeasure> measure;
  std::unique_ptr<TfIdfSelector> selector;
};

const Fixture& F() {
  static const Fixture* f = new Fixture();
  return *f;
}

class TfIdfSelectParam : public ::testing::TestWithParam<double> {};

TEST_P(TfIdfSelectParam, MatchesLinearScan) {
  const double tau = GetParam();
  const Fixture& f = F();
  std::vector<std::string> queries =
      testing_util::MakeQueries(f.records, 25, 81);
  for (const std::string& query : queries) {
    PreparedQuery q = f.Prepare(query);
    QueryResult expected =
        LinearScanSelect(*f.measure, *f.collection, q, tau);
    QueryResult actual = f.selector->Select(q, tau);
    testing_util::ExpectSameMatches(expected.matches, actual.matches,
                                    "tfidf tau=" + std::to_string(tau) +
                                        " q=" + query);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TfIdfSelectParam,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85, 0.95),
                         [](const auto& info) {
                           return "tau" + std::to_string(static_cast<int>(
                                              info.param * 100 + 0.5));
                         });

TEST(TfIdfSelectTest, AblationsStayExact) {
  const Fixture& f = F();
  PreparedQuery q = f.Prepare(f.records[7]);
  QueryResult expected = LinearScanSelect(*f.measure, *f.collection, q, 0.7);
  for (int variant = 0; variant < 2; ++variant) {
    SelectOptions o;
    if (variant == 0) o.length_bounding = false;
    if (variant == 1) o.use_skip_index = false;
    QueryResult actual = f.selector->Select(q, 0.7, o);
    testing_util::ExpectSameMatches(expected.matches, actual.matches,
                                    "variant " + std::to_string(variant));
  }
}

TEST(TfIdfSelectTest, BoostedLengthWindowHoldsForAllMatches) {
  // Boosted Theorem 1: τ·||q||/mtfq <= ||s|| <= max_mtf·||q||/τ.
  const Fixture& f = F();
  const double tau = 0.6;
  for (size_t r = 0; r < 20; ++r) {
    PreparedQuery q = f.Prepare(f.records[r]);
    if (q.tokens.empty()) continue;
    uint32_t mtfq = 1, max_db_tf = 1;
    for (size_t i = 0; i < q.tokens.size(); ++i) {
      mtfq = std::max(mtfq, q.tfs[i]);
      max_db_tf = std::max(max_db_tf, f.measure->max_tf(q.tokens[i]));
    }
    QueryResult matches = LinearScanSelect(*f.measure, *f.collection, q, tau);
    for (const Match& m : matches.matches) {
      double len = f.measure->set_length(m.id);
      EXPECT_GE(len, tau * q.length / mtfq * (1 - 1e-6)) << m.id;
      EXPECT_LE(len, max_db_tf * q.length / tau * (1 + 1e-6)) << m.id;
    }
  }
}

TEST(TfIdfSelectTest, PrunesRelativeToFullLists) {
  const Fixture& f = F();
  PreparedQuery q = f.Prepare(f.records[3]);
  QueryResult r = f.selector->Select(q, 0.9);
  EXPECT_LT(r.counters.elements_read, r.counters.elements_total);
  // Verification only touches surviving candidates, not the whole DB.
  EXPECT_LT(r.counters.rows_scanned, f.collection->size());
}

TEST(TfIdfSelectTest, EmptyQuery) {
  const Fixture& f = F();
  PreparedQuery q = f.Prepare("");
  EXPECT_TRUE(f.selector->Select(q, 0.5).matches.empty());
}

TEST(TfIdfSelectTest, SelfMatchAtHighThreshold) {
  const Fixture& f = F();
  for (size_t r = 0; r < 10; ++r) {
    PreparedQuery q = f.Prepare(f.records[r]);
    QueryResult res = f.selector->Select(q, 0.999);
    bool found_self = false;
    for (const Match& m : res.matches) found_self |= (m.id == r);
    EXPECT_TRUE(found_self) << f.records[r];
  }
}

TEST(TfIdfSelectTest, HonorsSelectOptions) {
  const Fixture& f = F();
  std::vector<PreparedQuery> queries;
  for (const std::string& query : testing_util::MakeQueries(f.records, 20, 5)) {
    queries.push_back(f.Prepare(query));
  }
  testing_util::ExpectHonorsSelectOptions(*f.selector, *f.measure,
                                          *f.collection, queries, 0.5);
}

}  // namespace
}  // namespace simsel
