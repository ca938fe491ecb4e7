// InvertedIndex::Contains and ProbeBlockFirst, TA/iTA's random-access
// membership probe and the block it reads, against brute force: every
// posting of every list, and absent (len, id) pairs next to them, on list
// shapes chosen to stress the two binary searches.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "index/collection.h"
#include "index/inverted_index.h"
#include "sim/idf.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace simsel {
namespace {

// Contains and ProbeBlockFirst, checked against a scan of the whole list:
// membership, and the block of the first posting at or after (len, id) in
// the list's (len, id) order (the last block if none).
void ExpectProbe(const InvertedIndex& index, TokenId t, float len,
                 uint32_t id) {
  const size_t n = index.ListSize(t);
  const uint32_t* ids = index.LenIds(t);
  const float* lens = index.LenLens(t);
  bool member = false;
  size_t lower = n;
  for (size_t i = 0; i < n; ++i) {
    member |= ids[i] == id && lens[i] == len;
    const bool before = lens[i] < len || (lens[i] == len && ids[i] < id);
    if (lower == n && !before) lower = i;
  }
  const size_t bp = index.block_postings();
  size_t expect_first = 0;
  if (n > 0) {
    expect_first = (lower == n ? index.NumBlocks(t) - 1 : lower / bp) * bp;
  }
  EXPECT_EQ(index.Contains(t, len, id), member)
      << "token " << t << " len " << len << " id " << id;
  EXPECT_EQ(index.ProbeBlockFirst(t, len, id), expect_first)
      << "token " << t << " len " << len << " id " << id;
}

// Probes every token of `index` with every posting of every list (members
// of some lists, absent from others), and with the absent neighbours of
// each: the adjacent ids, and the adjacent representable lengths.
void ExpectAllProbes(const InvertedIndex& index) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    for (TokenId u = 0; u < index.num_tokens(); ++u) {
      const uint32_t* ids = index.LenIds(u);
      const float* lens = index.LenLens(u);
      for (size_t i = 0; i < index.ListSize(u); ++i) {
        ExpectProbe(index, t, lens[i], ids[i]);
        ExpectProbe(index, t, lens[i], ids[i] + 1);
        if (ids[i] > 0) ExpectProbe(index, t, lens[i], ids[i] - 1);
        ExpectProbe(index, t, std::nextafter(lens[i], kInf), ids[i]);
        ExpectProbe(index, t, std::nextafter(lens[i], -kInf), ids[i]);
      }
    }
    ExpectProbe(index, t, 0.0f, 0);
    ExpectProbe(index, t, kInf, std::numeric_limits<uint32_t>::max());
  }
}

// One record per entry of `words` (each a single word token), set s of
// length lens[s]; the lists sort by (len, id) from there.
InvertedIndex WordIndex(const std::vector<std::string>& words,
                        const std::vector<float>& lens, size_t block_postings) {
  Tokenizer tokenizer(TokenizerOptions{.kind = TokenizerKind::kWord});
  InvertedIndexOptions opts;
  opts.block_postings = block_postings;
  return InvertedIndex::BuildWithLengths(Collection::Build(words, tokenizer),
                                         lens, opts);
}

// Runs of equal lengths that straddle block boundaries (blocks of 4), so the
// summary search must split a run by id; ids within a run ascend.
TEST(MembershipProbeTest, EqualLengthRunsAcrossBlockBoundaries) {
  const std::vector<float> lens = {3, 1, 1, 2, 1, 1, 1, 2, 2, 3, 3, 3, 3,
                                   1, 3, 3, 2, 2, 2, 3, 1};
  const InvertedIndex index =
      WordIndex(std::vector<std::string>(lens.size(), "x"), lens, 4);
  ASSERT_EQ(index.num_tokens(), 1u);
  ASSERT_GT(index.NumBlocks(0), 4u);
  ExpectAllProbes(index);
  // The first and last postings of the list, by name.
  const size_t n = index.ListSize(0);
  EXPECT_TRUE(index.Contains(0, index.LenLens(0)[0], index.LenIds(0)[0]));
  EXPECT_TRUE(
      index.Contains(0, index.LenLens(0)[n - 1], index.LenIds(0)[n - 1]));
}

// Two interleaved lists: "x" holds the even ids and "y" the odd ones, so
// every id of one list falls between two postings of the other.
TEST(MembershipProbeTest, IdsBetweenTwoPostings) {
  std::vector<std::string> words;
  std::vector<float> lens;
  for (uint32_t s = 0; s < 40; ++s) {
    words.push_back(s % 2 == 0 ? "x" : "y");
    lens.push_back(static_cast<float>(s / 6));
  }
  const InvertedIndex index = WordIndex(words, lens, 3);
  ASSERT_EQ(index.num_tokens(), 2u);
  for (TokenId t = 0; t < 2; ++t) {
    for (size_t i = 0; i < index.ListSize(t); ++i) {
      const uint32_t id = index.LenIds(t)[i];
      const float len = index.LenLens(t)[i];
      EXPECT_TRUE(index.Contains(t, len, id));
      EXPECT_FALSE(index.Contains(t, len, id + 1));
    }
  }
  ExpectAllProbes(index);
}

TEST(MembershipProbeTest, OneBlockList) {
  const std::vector<float> lens = {2, 2, 0.5f, 7, 2};
  const InvertedIndex index =
      WordIndex(std::vector<std::string>(lens.size(), "x"), lens, 128);
  ASSERT_EQ(index.NumBlocks(0), 1u);
  ExpectAllProbes(index);
}

// A shard over a range that misses most tokens: their lists are empty and
// every probe of them is a non-member landing on position 0.
TEST(MembershipProbeTest, EmptyListInAShardIndex) {
  const std::vector<std::string> records =
      testing_util::MakeWordRecords(120, /*seed=*/61);
  Tokenizer tokenizer(TokenizerOptions{.q = 3});
  const Collection collection = Collection::Build(records, tokenizer);
  const IdfMeasure measure(collection);
  InvertedIndexOptions opts;
  opts.block_postings = 4;
  const InvertedIndex shard =
      InvertedIndex::BuildShard(collection, measure, 30, 40, opts);
  size_t empty = 0;
  for (TokenId t = 0; t < shard.num_tokens(); ++t) {
    if (shard.ListSize(t) != 0) continue;
    ++empty;
    EXPECT_FALSE(shard.Contains(t, measure.set_length(35), 35));
    EXPECT_EQ(shard.ProbeBlockFirst(t, measure.set_length(35), 35), 0u);
  }
  EXPECT_GT(empty, 0u);
  ExpectAllProbes(shard);
}

// Real q-gram lists over several block sizes, from one posting per block up.
TEST(MembershipProbeTest, GramListsAcrossBlockSizes) {
  const std::vector<std::string> records =
      testing_util::MakeWordRecords(150, /*seed=*/62);
  Tokenizer tokenizer(TokenizerOptions{.q = 3});
  const Collection collection = Collection::Build(records, tokenizer);
  const IdfMeasure measure(collection);
  for (size_t block : {1, 2, 5, 128}) {
    SCOPED_TRACE("block_postings " + std::to_string(block));
    InvertedIndexOptions opts;
    opts.block_postings = block;
    ExpectAllProbes(InvertedIndex::Build(collection, measure, opts));
  }
}

}  // namespace
}  // namespace simsel
