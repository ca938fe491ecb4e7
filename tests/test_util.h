#ifndef SIMSEL_TESTS_TEST_UTIL_H_
#define SIMSEL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/linear_scan.h"
#include "core/selector.h"
#include "gen/corpus.h"
#include "gen/error_model.h"
#include "storage/fault_injector.h"
#include "storage/posting_store.h"
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
  // Small pages so page accounting is exercised even on test-sized lists.
  build.index.page_bytes = 512;
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

/// The first difference between two answers — the count, or an id or a
/// score's bits at some rank — or "" when they are identical.
inline std::string MatchDifference(const std::vector<Match>& expected,
                                   const std::vector<Match>& actual) {
  if (expected.size() != actual.size()) {
    return "count " + std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].id != actual[i].id ||
        std::bit_cast<uint64_t>(expected[i].score) !=
            std::bit_cast<uint64_t>(actual[i].score)) {
      std::ostringstream out;
      out << std::setprecision(17) << "rank " << i << ": id "
          << expected[i].id << " score " << expected[i].score << " vs id "
          << actual[i].id << " score " << actual[i].score;
      return out.str();
    }
  }
  return "";
}

/// Asserts two match vectors are identical (ids and score bits).
inline void ExpectSameMatches(const std::vector<Match>& expected,
                              const std::vector<Match>& actual,
                              const std::string& context) {
  EXPECT_EQ(MatchDifference(expected, actual), "") << context;
}

/// Why `partial` is not a sound subset of the complete answer `full` — a
/// failed status, a results count that disagrees, a match absent from
/// `full` or with other score bits, or ids out of ascending order — or ""
/// when it is one.
inline std::string PartialDifference(const QueryResult& full,
                                     const QueryResult& partial) {
  if (!partial.status.ok()) return "status " + partial.status.ToString();
  if (partial.counters.results != partial.matches.size()) {
    return "counters.results disagrees with the match count";
  }
  size_t fi = 0;
  for (size_t i = 0; i < partial.matches.size(); ++i) {
    const Match& m = partial.matches[i];
    if (i > 0 && partial.matches[i - 1].id >= m.id) {
      return "ids out of order at rank " + std::to_string(i);
    }
    while (fi < full.matches.size() && full.matches[fi].id < m.id) ++fi;
    if (fi == full.matches.size() || full.matches[fi].id != m.id) {
      return "id " + std::to_string(m.id) + " absent from the complete answer";
    }
    if (std::bit_cast<uint64_t>(full.matches[fi].score) !=
        std::bit_cast<uint64_t>(m.score)) {
      return "score bits of id " + std::to_string(m.id) + " differ";
    }
  }
  return "";
}

/// Asserts a tripped query's answer is sound: every match is in the complete
/// answer with the identical score, in canonical ascending-id order.
inline void ExpectSoundPartial(const QueryResult& full,
                               const QueryResult& partial,
                               const std::string& context) {
  EXPECT_EQ(PartialDifference(full, partial), "") << context;
}

/// Checks that a selector running the shared Shortest-First loop (TfIdfSelector,
/// Bm25Selector) honors SelectOptions like every strategy, per query: a
/// preset cancel token reports kCancelled; a one-element budget trips into a
/// sound partial; τ ∈ {NaN, -1, 0} answers like the (clamping) linear scan;
/// disk mode over PostingStore::Build(index) equals memory mode; and a
/// storage outage surfaces as kUnavailable with no matches.
template <class Selector>
void ExpectHonorsSelectOptions(const Selector& selector,
                               const SimilarityMeasure& measure,
                               const Collection& collection,
                               const std::vector<PreparedQuery>& queries,
                               double tau) {
  std::atomic<bool> cancel{true};
  SelectOptions cancelled;
  cancelled.control.cancel = &cancel;
  SelectOptions budget;
  budget.control.max_elements_read = 1;
  PostingStore store = PostingStore::Build(selector.index());
  FaultInjector injector;
  store.set_fault_injector(&injector);
  SelectOptions disk;
  disk.posting_store = &store;
  for (size_t i = 0; i < queries.size(); ++i) {
    const PreparedQuery& q = queries[i];
    const std::string context = "query " + std::to_string(i);
    const QueryResult full = selector.Select(q, tau);
    EXPECT_EQ(selector.Select(q, tau, cancelled).termination,
              Termination::kCancelled)
        << context;
    if (full.counters.elements_read >= 2) {  // enough work to trip on
      QueryResult partial = selector.Select(q, tau, budget);
      EXPECT_EQ(partial.termination, Termination::kBudget) << context;
      ExpectSoundPartial(full, partial, context);
    }
    for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0, 0.0}) {
      ExpectSameMatches(LinearScanSelect(measure, collection, q, bad).matches,
                        selector.Select(q, bad).matches,
                        context + " tau=" + std::to_string(bad));
    }
    QueryResult on_disk = selector.Select(q, tau, disk);
    ExpectSameMatches(full.matches, on_disk.matches, context + " disk");
    EXPECT_EQ(full.counters.elements_read, on_disk.counters.elements_read)
        << context;
    if (on_disk.counters.elements_read == 0) continue;  // no read to fail
    injector.FailNextReads(1'000'000);
    QueryResult failed = selector.Select(q, tau, disk);
    injector.Reset();
    EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable) << context;
    EXPECT_TRUE(failed.matches.empty()) << context;
  }
}

}  // namespace testing_util
}  // namespace simsel

#endif  // SIMSEL_TESTS_TEST_UTIL_H_
