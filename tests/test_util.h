#ifndef SIMSEL_TESTS_TEST_UTIL_H_
#define SIMSEL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/selector.h"
#include "gen/corpus.h"
#include "gen/error_model.h"
#include "text/tokenizer.h"

namespace simsel {
namespace testing_util {

/// Small deterministic word collection with structured overlaps: a pool of
/// base words plus corrupted near-duplicates, so thresholds in (0.5, 1.0)
/// produce non-trivial result sets.
inline std::vector<std::string> MakeWordRecords(size_t n, uint64_t seed) {
  CorpusOptions o;
  o.num_records = n;
  o.vocab_size = std::max<size_t>(20, n / 4);
  o.min_words = 1;
  o.max_words = 1;
  o.seed = seed;
  return GenerateCorpus(o).records;
}

/// Builds a selector over word records with every structure enabled; the
/// opt-in sketch tier only when `with_sketches` is set.
inline SimilaritySelector MakeSelector(size_t n, uint64_t seed,
                                       bool with_sql = true,
                                       bool with_sketches = false) {
  BuildOptions build;
  build.tokenizer.q = 3;
  build.build_sql_baseline = with_sql;
  build.index.build_sketches = with_sketches;
  // Small pages so page accounting and skip indexes are exercised even on
  // test-sized lists.
  build.index.page_bytes = 512;
  build.index.skip_fanout = 8;
  build.index.hash_page_bytes = 256;
  build.btree_page_bytes = 512;
  return SimilaritySelector::Build(MakeWordRecords(n, seed), build);
}

/// Sample query strings: half are records from the collection (exact
/// matches exist), half are corrupted copies.
inline std::vector<std::string> MakeQueries(
    const std::vector<std::string>& records, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string q = records[rng.NextBounded(records.size())];
    if (i % 2 == 1) q = ApplyModifications(q, 1 + (i % 3), &rng);
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Asserts two match vectors are identical (ids and exact scores).
inline void ExpectSameMatches(const std::vector<Match>& expected,
                              const std::vector<Match>& actual,
                              const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size())
      << context << ": result count mismatch";
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << context << " at rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].score, actual[i].score)
        << context << " score of id " << actual[i].id;
  }
}

}  // namespace testing_util
}  // namespace simsel

#endif  // SIMSEL_TESTS_TEST_UTIL_H_
