#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "index/inverted_index.h"
#include "storage/paged_file.h"
#include "test_util.h"

namespace simsel {
namespace {

struct Fixture {
  explicit Fixture(size_t n = 300, InvertedIndexOptions opts = {})
      : tokenizer(TokenizerOptions{.q = 3}),
        collection(Collection::Build(
            testing_util::MakeWordRecords(n, /*seed=*/5), tokenizer)),
        measure(collection),
        index(InvertedIndex::Build(collection, measure, opts)) {}

  Tokenizer tokenizer;
  Collection collection;
  IdfMeasure measure;
  InvertedIndex index;
};

TEST(InvertedIndexTest, EveryPostingMatchesCollection) {
  Fixture f;
  uint64_t postings = 0;
  for (TokenId t = 0; t < f.index.num_tokens(); ++t) {
    size_t n = f.index.ListSize(t);
    postings += n;
    const uint32_t* ids = f.index.LenIds(t);
    const float* lens = f.index.LenLens(t);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(f.collection.Contains(ids[i], t));
      EXPECT_FLOAT_EQ(lens[i], f.measure.set_length(ids[i]));
    }
  }
  EXPECT_EQ(postings, f.index.total_postings());
  // Total postings = Σ per-set distinct tokens.
  uint64_t expected = 0;
  for (SetId s = 0; s < f.collection.size(); ++s) {
    expected += f.collection.set(s).tokens.size();
  }
  EXPECT_EQ(postings, expected);
}

TEST(InvertedIndexTest, ByLengthListsSortedLenThenId) {
  // Property 1 substrate: the sort order that makes per-list contributions
  // decrease monotonically.
  Fixture f;
  for (TokenId t = 0; t < f.index.num_tokens(); ++t) {
    size_t n = f.index.ListSize(t);
    const uint32_t* ids = f.index.LenIds(t);
    const float* lens = f.index.LenLens(t);
    for (size_t i = 1; i < n; ++i) {
      ASSERT_TRUE(lens[i - 1] < lens[i] ||
                  (lens[i - 1] == lens[i] && ids[i - 1] < ids[i]))
          << "token " << t << " pos " << i;
    }
  }
}

TEST(InvertedIndexTest, ListSizesMatchDf) {
  Fixture f;
  for (TokenId t = 0; t < f.index.num_tokens(); ++t) {
    EXPECT_EQ(f.index.ListSize(t), f.collection.dictionary().df(t));
  }
}

TEST(InvertedIndexTest, SizeAccounting) {
  Fixture f;
  // One list order: 8 bytes per posting plus the offset table.
  EXPECT_EQ(f.index.ListBytesTotal(),
            f.index.total_postings() * 8 +
                (f.index.num_tokens() + 1) * sizeof(uint64_t));
  // Skip lists (the block summaries) are tiny relative to the lists.
  EXPECT_EQ(f.index.SkipBytes(), f.index.BlockSummaryBytes());
  EXPECT_LT(f.index.SkipBytes(), f.index.total_postings() * 8);
}

TEST(InvertedIndexTest, ValidatePasses) {
  Fixture f;
  EXPECT_TRUE(f.index.Validate());
}

TEST(InvertedIndexTest, SaveLoadRoundtrip) {
  Fixture f;
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_index.bin").string();
  ASSERT_TRUE(f.index.Save(path).ok());
  Result<InvertedIndex> loaded = InvertedIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_tokens(), f.index.num_tokens());
  ASSERT_EQ(loaded->total_postings(), f.index.total_postings());
  for (TokenId t = 0; t < f.index.num_tokens(); ++t) {
    ASSERT_EQ(loaded->ListSize(t), f.index.ListSize(t));
    for (size_t i = 0; i < f.index.ListSize(t); ++i) {
      ASSERT_EQ(loaded->LenIds(t)[i], f.index.LenIds(t)[i]);
      ASSERT_EQ(loaded->LenLens(t)[i], f.index.LenLens(t)[i]);
    }
    // Derived structures are rebuilt.
    EXPECT_EQ(loaded->NumBlocks(t), f.index.NumBlocks(t));
  }
  EXPECT_TRUE(loaded->Validate());
  std::remove(path.c_str());
}

TEST(InvertedIndexTest, LoadRejectsGarbage) {
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_garbage.bin").string();
  {
    PagedFile file(4096);
    file.Append("not an index at all", 19);
    ASSERT_TRUE(file.SaveToFile(path).ok());
  }
  Result<InvertedIndex> loaded = InvertedIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simsel
