#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/thread_pool.h"
#include "core/linear_scan.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeQueries;
using testing_util::MakeWordRecords;

// One selector per (segments, disk) over the same 400 word records. K = 3
// fans out on a thread pool.
const SimilaritySelector& Selector(size_t segments = 1, bool disk = false) {
  static ThreadPool* pool = new ThreadPool(2);
  static std::unique_ptr<SimilaritySelector> built[2][2];
  std::unique_ptr<SimilaritySelector>& slot = built[segments > 1][disk];
  if (slot == nullptr) {
    BuildOptions build;
    build.tokenizer.q = 3;
    build.index.page_bytes = 512;
    build.num_segments = segments;
    build.disk_mode = disk;
    build.pool_pages = disk ? 64 : 0;
    slot = std::make_unique<SimilaritySelector>(
        SimilaritySelector::Build(MakeWordRecords(400, /*seed=*/121), build));
    if (segments > 1) slot->set_thread_pool(pool);
  }
  return *slot;
}

std::vector<std::string> Queries(size_t n, uint64_t seed) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> texts;
  for (SetId s = 0; s < sel.collection().size(); ++s) {
    texts.push_back(sel.collection().text(s));
  }
  return MakeQueries(texts, n, seed);
}

// Linear top-k truncated to positive scores: an inverted index never sees a
// set that shares no weighted token with the query.
std::vector<Match> ReferenceTopK(const std::string& query, size_t k) {
  const SimilaritySelector& sel = Selector();
  QueryResult r = LinearScanTopK(sel.measure(), sel.collection(),
                                 sel.Prepare(query), k);
  std::vector<Match> out;
  for (const Match& m : r.matches) {
    if (m.score > 0.0) out.push_back(m);
  }
  return out;
}

// (segments, disk, k, ablation): ablation 0 is the default configuration,
// 1–3 switch off length bounding, order preservation, magnitude bounds.
using Config = std::tuple<size_t, bool, size_t, int>;

class TopKMatrix : public ::testing::TestWithParam<Config> {};

TEST_P(TopKMatrix, MatchesLinearScanTopK) {
  const auto [segments, disk, k, ablation] = GetParam();
  const SimilaritySelector& sel = Selector(segments, disk);
  ASSERT_EQ(sel.num_segments(), segments);
  ASSERT_EQ(sel.disk_mode(), disk);
  SelectOptions options;
  options.length_bounding = ablation != 1;
  options.order_preservation = ablation != 2;
  options.magnitude_bound = ablation != 3;
  for (const std::string& query : Queries(15, 131)) {
    QueryResult actual = sel.SelectTopK(query, k, options);
    ASSERT_TRUE(actual.complete()) << actual.status.ToString();
    EXPECT_EQ(actual.counters.results, actual.matches.size());
    testing_util::ExpectSameMatches(ReferenceTopK(query, k), actual.matches,
                                    "q=" + query);
  }
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  static const char* const kAblations[] = {"all", "nolb", "noop", "nomb"};
  const auto [segments, disk, k, ablation] = info.param;
  return "K" + std::to_string(segments) + (disk ? "disk" : "mem") + "k" +
         std::to_string(k) + kAblations[ablation];
}

INSTANTIATE_TEST_SUITE_P(
    All, TopKMatrix,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{3}),
                       ::testing::Bool(),
                       ::testing::Values(size_t{1}, size_t{3}, size_t{10},
                                         size_t{50}),
                       ::testing::Range(0, 4)),
    ConfigName);

TEST(TopKTest, KZeroAndEmptyQuery) {
  for (size_t segments : {1, 3}) {
    const SimilaritySelector& sel = Selector(segments);
    QueryResult zero = sel.SelectTopK(sel.collection().text(1), 0);
    EXPECT_TRUE(zero.complete());
    EXPECT_TRUE(zero.matches.empty());
    QueryResult empty = sel.SelectTopK("", 5);
    EXPECT_TRUE(empty.complete());
    EXPECT_TRUE(empty.matches.empty());
  }
}

TEST(TopKTest, KBeyondTheSetsSharingATokenReturnsThemAll) {
  // The descent runs down to kMinTau and returns every set the query shares
  // a token with: fewer than k, all of them.
  const size_t k = Selector().collection().size() + 1;
  for (size_t segments : {1, 3}) {
    for (bool disk : {false, true}) {
      const SimilaritySelector& sel = Selector(segments, disk);
      for (const std::string& query : Queries(4, 151)) {
        std::vector<Match> expected = ReferenceTopK(query, k);
        ASSERT_LT(expected.size(), sel.collection().size());
        QueryResult actual = sel.SelectTopK(query, k);
        ASSERT_TRUE(actual.complete());
        testing_util::ExpectSameMatches(expected, actual.matches,
                                        "q=" + query);
      }
    }
  }
}

TEST(TopKTest, TopOneIsSelfForExactQuery) {
  const SimilaritySelector& sel = Selector();
  QueryResult r = sel.SelectTopK(sel.collection().text(29), 1);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_NEAR(r.matches[0].score, 1.0, 1e-5);
}

TEST(TopKTest, ListTotalIsCountedOnce) {
  // Each SF run opens the query's lists; the descent reports their total
  // once, like a single run.
  for (size_t segments : {1, 3}) {
    const SimilaritySelector& sel = Selector(segments);
    for (const std::string& query : Queries(6, 161)) {
      QueryResult topk = sel.SelectTopK(query, 50);
      QueryResult one = sel.Select(query, 0.9);
      EXPECT_EQ(topk.counters.elements_total, one.counters.elements_total);
      EXPECT_GE(topk.counters.elements_read, one.counters.elements_read);
    }
  }
}

TEST(TopKTest, PrunesRelativeToFullScan) {
  // With k = 1 the first run at τ = 0.9 usually answers; the descent should
  // not read every posting of every list.
  const SimilaritySelector& sel = Selector();
  uint64_t read = 0, total = 0;
  for (const std::string& query : Queries(10, 141)) {
    QueryResult r = sel.SelectTopK(query, 1);
    read += r.counters.elements_read;
    total += r.counters.elements_total;
  }
  EXPECT_LT(read, total);
}

}  // namespace
}  // namespace simsel
