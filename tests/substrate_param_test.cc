#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "btree/bplus_tree.h"
#include "common/rng.h"
#include "index/collection.h"
#include "index/inverted_index.h"
#include "text/tokenizer.h"

namespace simsel {
namespace {

// --- Block-summary seeks: block size × distribution sweep. ---

enum class Distribution { kUniform, kClustered, kConstant, kSteps };

std::vector<float> MakeLengths(Distribution dist, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  switch (dist) {
    case Distribution::kUniform:
      for (auto& x : v) x = static_cast<float>(rng.NextDouble() * 100.0);
      break;
    case Distribution::kClustered:
      // Tight cluster with a few outliers, like IDF lengths in practice.
      for (auto& x : v) {
        x = static_cast<float>(50.0 + rng.NextGaussian());
        if (rng.NextBernoulli(0.02)) {
          x = static_cast<float>(rng.NextDouble() * 100.0);
        }
      }
      break;
    case Distribution::kConstant:
      for (auto& x : v) x = 42.0f;
      break;
    case Distribution::kSteps:
      // Long runs of equal values (duplicate set lengths).
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<float>((i / 97) * 3);
      }
      break;
  }
  std::sort(v.begin(), v.end());
  return v;
}

// An index whose every list holds `lens` in order: each record is the same
// single word, and set s gets length lens[s] (already sorted, so the
// by-(len, id) order is the input order).
InvertedIndex SingleListIndex(const std::vector<float>& lens,
                              size_t block_postings) {
  Tokenizer tokenizer(TokenizerOptions{.kind = TokenizerKind::kWord});
  Collection collection = Collection::Build(
      std::vector<std::string>(lens.size(), "x"), tokenizer);
  InvertedIndexOptions opts;
  opts.block_postings = block_postings;
  return InvertedIndex::BuildWithLengths(collection, lens, opts);
}

class SummarySeekSweep
    : public ::testing::TestWithParam<std::tuple<size_t, Distribution>> {};

TEST_P(SummarySeekSweep, MatchesLowerAndUpperBound) {
  const auto& [block, dist] = GetParam();
  std::vector<float> v = MakeLengths(dist, 4000, 7 + block);
  InvertedIndex index = SingleListIndex(v, block);
  ASSERT_EQ(index.num_tokens(), 1u);
  ASSERT_EQ(index.ListSize(0), v.size());
  auto expect_bounds = [&](float target) {
    const size_t lower = static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(), target) - v.begin());
    const size_t upper = static_cast<size_t>(
        std::upper_bound(v.begin(), v.end(), target) - v.begin());
    ASSERT_EQ(index.SeekFirstGE(0, target), lower)
        << "block=" << block << " target=" << target;
    ASSERT_EQ(index.SeekFirstGT(0, target), upper)
        << "block=" << block << " target=" << target;
  };
  Rng rng(99);
  for (int probe = 0; probe < 300; ++probe) {
    expect_bounds(static_cast<float>(rng.NextDouble() * 110.0 - 5.0));
  }
  // Probe exact stored values too (duplicate-heavy distributions).
  for (size_t i = 0; i < v.size(); i += 131) expect_bounds(v[i]);
}

INSTANTIATE_TEST_SUITE_P(
    BlockSizesAndDistributions, SummarySeekSweep,
    ::testing::Combine(::testing::Values(2, 3, 8, 128),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kClustered,
                                         Distribution::kConstant,
                                         Distribution::kSteps)),
    ([](const auto& info) {
      const char* names[] = {"Uniform", "Clustered", "Constant", "Steps"};
      std::string name = "b";
      name += std::to_string(std::get<0>(info.param));
      name += names[static_cast<int>(std::get<1>(info.param))];
      return name;
    }));

// --- B+-tree: page size × insertion pattern sweep. ---

enum class InsertPattern { kAscending, kDescending, kRandom, kDuplicates };

class BPlusTreeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, InsertPattern>> {};

TEST_P(BPlusTreeSweep, ValidAndComplete) {
  const auto& [page, pattern] = GetParam();
  BPlusTree<int, int>::Options opts;
  opts.page_bytes = page;
  BPlusTree<int, int> tree(opts);
  std::vector<int> keys;
  const int n = 3000;
  Rng rng(11 + page);
  for (int i = 0; i < n; ++i) {
    int key = 0;
    switch (pattern) {
      case InsertPattern::kAscending:
        key = i;
        break;
      case InsertPattern::kDescending:
        key = n - i;
        break;
      case InsertPattern::kRandom:
        key = static_cast<int>(rng.NextBounded(10 * n));
        break;
      case InsertPattern::kDuplicates:
        key = static_cast<int>(rng.NextBounded(7));
        break;
    }
    tree.Insert(key, i);
    keys.push_back(key);
  }
  ASSERT_TRUE(tree.Validate())
      << "page=" << page << " pattern=" << static_cast<int>(pattern);
  EXPECT_EQ(tree.size(), keys.size());
  std::sort(keys.begin(), keys.end());
  size_t i = 0;
  for (auto s = tree.Begin(); s.Valid(); s.Next(), ++i) {
    ASSERT_EQ(s.key(), keys[i]);
  }
  EXPECT_EQ(i, keys.size());
}

INSTANTIATE_TEST_SUITE_P(
    PagesAndPatterns, BPlusTreeSweep,
    ::testing::Combine(::testing::Values(256, 1024, 8192),
                       ::testing::Values(InsertPattern::kAscending,
                                         InsertPattern::kDescending,
                                         InsertPattern::kRandom,
                                         InsertPattern::kDuplicates)),
    ([](const auto& info) {
      const char* names[] = {"Asc", "Desc", "Random", "Dups"};
      return "page" + std::to_string(std::get<0>(info.param)) +
             names[static_cast<int>(std::get<1>(info.param))];
    }));

}  // namespace
}  // namespace simsel
