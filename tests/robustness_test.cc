#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Degenerate collection shapes. ---

TEST(RobustnessTest, AllRecordsIdentical) {
  std::vector<std::string> records(50, "identical record");
  SimilaritySelector sel = SimilaritySelector::Build(records);
  QueryResult r = sel.Select("identical record", 0.99);
  EXPECT_EQ(r.matches.size(), 50u);
  for (const Match& m : r.matches) EXPECT_NEAR(m.score, 1.0, 1e-5);
  // All algorithms agree.
  for (AlgorithmKind kind :
       {AlgorithmKind::kSortById, AlgorithmKind::kTa, AlgorithmKind::kInra,
        AlgorithmKind::kSf, AlgorithmKind::kHybrid,
        AlgorithmKind::kPrefixFilter}) {
    QueryResult other = sel.Select("identical record", 0.99, kind);
    ExpectSameMatches(r.matches, other.matches, AlgorithmKindName(kind));
  }
}

TEST(RobustnessTest, SingleRecordCollection) {
  SimilaritySelector sel = SimilaritySelector::Build({"only one"});
  EXPECT_EQ(sel.Select("only one", 0.9).matches.size(), 1u);
  EXPECT_TRUE(sel.Select("different", 0.9).matches.empty());
}

TEST(RobustnessTest, EmptyAndWhitespaceRecords) {
  SimilaritySelector sel =
      SimilaritySelector::Build({"", "   ", "real record"});
  QueryResult r = sel.Select("real record", 0.9);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].id, 2u);
  // Empty query against a collection containing empty sets.
  EXPECT_TRUE(sel.Select("", 0.5).matches.empty());
}

TEST(RobustnessTest, SingleCharacterRecords) {
  std::vector<std::string> records = {"a", "b", "c", "ab"};
  SimilaritySelector sel = SimilaritySelector::Build(records);
  QueryResult r = sel.Select("a", 0.5);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches[0].id, 0u);
}

// The list-merging kernels keep ⌈n/64⌉ membership words per candidate, so
// queries with n distinct tokens around the one-word boundary must answer
// exactly like the linear scan (ids and score bits), in memory and on disk,
// and a budget-tripped query must still return a sound subset.
TEST(RobustnessTest, VeryLongRecord) {
  std::string longrec;
  for (int i = 0; i < 200; ++i) {
    longrec += "token";
    longrec += std::to_string(i);
    longrec += ' ';
  }
  SimilaritySelector sel = SimilaritySelector::Build({longrec, "short"});
  QueryResult r = sel.Select(longrec, 0.95);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches[0].id, 0u);

  constexpr double kTau = 0.7;
  Rng rng(/*seed=*/64);
  for (size_t n : {63, 64, 65, 130}) {
    // Records keep a random 50-100% of the query's n tokens (so members on
    // both sides of bit 64 go missing) plus a few tokens outside it.
    std::string query;
    for (size_t t = 0; t < n; ++t) {
      query += 'w';
      query += std::to_string(t);
      query += ' ';
    }
    std::vector<std::string> records = {query};
    for (int rec = 0; rec < 80; ++rec) {
      const uint64_t keep = 50 + rng.NextBounded(51);
      std::string text;
      for (size_t t = 0; t < n + 16; ++t) {
        if (rng.NextBounded(100) >= (t < n ? keep : 20)) continue;
        text += 'w';
        text += std::to_string(t);
        text += ' ';
      }
      records.push_back(text);
    }
    BuildOptions build;
    build.tokenizer.kind = TokenizerKind::kWord;
    build.index.page_bytes = 512;
    SimilaritySelector boundary = SimilaritySelector::Build(records, build);
    PostingStore store = PostingStore::Build(boundary.index());
    const PreparedQuery q = boundary.Prepare(query);
    ASSERT_EQ(q.tokens.size(), n);
    const QueryResult expected =
        boundary.SelectPrepared(q, kTau, AlgorithmKind::kLinearScan, {});
    ASSERT_GT(expected.matches.size(), 1u) << "n=" << n;
    ASSERT_LT(expected.matches.size(), records.size()) << "n=" << n;
    for (AlgorithmKind kind :
         {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid,
          AlgorithmKind::kNra, AlgorithmKind::kTa, AlgorithmKind::kIta}) {
      std::string context = AlgorithmKindName(kind);
      context += " n=";
      context += std::to_string(n);
      for (bool on_disk : {false, true}) {
        SelectOptions options;
        if (on_disk) options.posting_store = &store;
        const QueryResult actual =
            boundary.SelectPrepared(q, kTau, kind, options);
        ASSERT_TRUE(actual.status.ok()) << context;
        ASSERT_EQ(actual.matches.size(), expected.matches.size())
            << context << (on_disk ? " disk" : " memory");
        for (size_t i = 0; i < expected.matches.size(); ++i) {
          EXPECT_EQ(actual.matches[i].id, expected.matches[i].id) << context;
          EXPECT_EQ(actual.matches[i].score, expected.matches[i].score)
              << context << (on_disk ? " disk" : " memory") << " id "
              << actual.matches[i].id;
        }
      }
      // Tripped after reading about half of what the full query reads.
      const QueryResult full = boundary.SelectPrepared(q, kTau, kind, {});
      SelectOptions budget;
      budget.control.max_elements_read =
          std::max<uint64_t>(1, full.counters.elements_read / 2);
      const QueryResult partial =
          boundary.SelectPrepared(q, kTau, kind, budget);
      EXPECT_EQ(partial.termination, Termination::kBudget) << context;
      testing_util::ExpectSoundPartial(full, partial, context);
    }
  }
}

TEST(RobustnessTest, HighlySkewedListLengths) {
  // One token appears everywhere, others are unique — the regime where
  // SF's shortest-first ordering matters most.
  std::vector<std::string> records;
  for (int i = 0; i < 120; ++i) {
    records.push_back("common uniq" + std::to_string(i));
  }
  BuildOptions build;
  build.tokenizer.kind = TokenizerKind::kWord;
  SimilaritySelector sel = SimilaritySelector::Build(records, build);
  PreparedQuery q = sel.Prepare("common uniq7");
  QueryResult expected =
      sel.SelectPrepared(q, 0.5, AlgorithmKind::kLinearScan, {});
  for (AlgorithmKind kind :
       {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid,
        AlgorithmKind::kIta, AlgorithmKind::kPrefixFilter}) {
    QueryResult actual = sel.SelectPrepared(q, 0.5, kind, {});
    ExpectSameMatches(expected.matches, actual.matches,
                      AlgorithmKindName(kind));
  }
}

// --- Saved index roundtrip and corruption fuzzing. ---

TEST(RobustnessTest, SavedIndexRoundtripAnswersIdentically) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(200, /*seed=*/31);
  SimilaritySelector original = SimilaritySelector::Build(records);
  std::string path = TempPath("simsel_roundtrip.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (SetId s = 0; s < 20; ++s) {
    QueryResult a = original.Select(records[s], 0.7);
    QueryResult b = loaded->Select(records[s], 0.7);
    ExpectSameMatches(a.matches, b.matches, records[s]);
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, SavedIndexRejectsMismatchedRecords) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(100, /*seed=*/33);
  SimilaritySelector original = SimilaritySelector::Build(records);
  std::string path = TempPath("simsel_mismatch.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  std::vector<std::string> other =
      testing_util::MakeWordRecords(120, /*seed=*/77);
  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(other, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Empty records add no postings and no tokens, so an image built over two
// more of them passes the posting and token checks, yet its sketch section
// has two more rows than the collection has sets. Loading it must fail
// instead of letting the prefilter read past the collection.
TEST(RobustnessTest, SavedIndexRejectsWiderSketchSection) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(100, /*seed=*/34);
  std::vector<std::string> padded = records;
  padded.push_back("");
  padded.push_back("");
  BuildOptions build;
  build.index.build_sketches = true;
  SimilaritySelector original = SimilaritySelector::Build(padded, build);
  ASSERT_TRUE(original.index().has_sketches());
  ASSERT_EQ(original.index().sketch_num_sets(), records.size() + 2);
  std::string path = TempPath("simsel_sketch_mismatch.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  // The image still loads over the records it was built from.
  EXPECT_TRUE(SimilaritySelector::BuildWithSavedIndex(padded, path).ok());
  std::remove(path.c_str());
}

// Empty records placed first shift every posting's id without changing the
// posting count or the dictionary, so an image built over them passes both
// checks against the records alone, yet its ids run past the collection.
// Loading it must fail: the kernels index per-query tables by set id.
TEST(RobustnessTest, SavedIndexRejectsIdsPastTheCollection) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(100, /*seed=*/36);
  std::vector<std::string> shifted(5, "");
  shifted.insert(shifted.end(), records.begin(), records.end());
  SimilaritySelector original = SimilaritySelector::Build(shifted);
  std::string path = TempPath("simsel_id_shift.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(SimilaritySelector::BuildWithSavedIndex(shifted, path).ok());
  std::remove(path.c_str());
}

TEST(RobustnessTest, TruncatedIndexFilesNeverCrash) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(80, /*seed=*/35);
  SimilaritySelector original = SimilaritySelector::Build(records);
  std::string path = TempPath("simsel_trunc.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());
  auto full_size = std::filesystem::file_size(path);

  // Truncate at a spread of byte offsets: Load must always fail cleanly.
  for (uintmax_t cut = 0; cut < full_size; cut += std::max<uintmax_t>(1, full_size / 40)) {
    std::filesystem::resize_file(path, cut);
    Result<InvertedIndex> loaded = InvertedIndex::Load(path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    // Restore for the next iteration.
    std::remove(path.c_str());
    ASSERT_TRUE(original.SaveIndex(path).ok());
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, BitFlippedIndexFilesNeverCrash) {
  std::vector<std::string> records =
      testing_util::MakeWordRecords(60, /*seed=*/37);
  SimilaritySelector original = SimilaritySelector::Build(records);
  std::string path = TempPath("simsel_flip.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());
  auto size = std::filesystem::file_size(path);

  for (uintmax_t pos = 0; pos < size; pos += std::max<uintmax_t>(1, size / 25)) {
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(pos));
      char c;
      f.get(c);
      f.seekp(static_cast<std::streamoff>(pos));
      f.put(static_cast<char>(c ^ 0x55));
    }
    // Either the checksum rejects it or decoding fails — never a crash.
    Result<InvertedIndex> loaded = InvertedIndex::Load(path);
    EXPECT_FALSE(loaded.ok()) << "flip at " << pos;
    std::remove(path.c_str());
    ASSERT_TRUE(original.SaveIndex(path).ok());
  }
  std::remove(path.c_str());
}

// --- Randomized differential testing across corpus shapes. ---

TEST(RobustnessTest, DifferentCorpusShapesStayExact) {
  struct Shape {
    size_t n;
    size_t vocab;
    uint64_t seed;
  };
  for (const Shape& shape :
       {Shape{150, 10, 41}, Shape{150, 2000, 43}, Shape{60, 30, 47}}) {
    CorpusOptions co;
    co.num_records = shape.n;
    co.vocab_size = shape.vocab;
    co.min_words = 1;
    co.max_words = 2;
    co.seed = shape.seed;
    SimilaritySelector sel =
        SimilaritySelector::Build(GenerateCorpus(co).records);
    for (double tau : {0.4, 0.8}) {
      for (SetId s = 0; s < 10; ++s) {
        PreparedQuery q = sel.Prepare(sel.collection().text(s * 3));
        QueryResult expected =
            sel.SelectPrepared(q, tau, AlgorithmKind::kLinearScan, {});
        for (AlgorithmKind kind :
             {AlgorithmKind::kSf, AlgorithmKind::kHybrid,
              AlgorithmKind::kInra, AlgorithmKind::kIta,
              AlgorithmKind::kPrefixFilter}) {
          QueryResult actual = sel.SelectPrepared(q, tau, kind, {});
          ExpectSameMatches(expected.matches, actual.matches,
                            std::string(AlgorithmKindName(kind)) + " vocab=" +
                                std::to_string(shape.vocab));
        }
      }
    }
  }
}

}  // namespace
}  // namespace simsel
