// Format-version compatibility: an index saved as kVersionLegacy (v2,
// uncompressed) and as kVersionLatest (v4, compressed posting blocks plus
// the sketch section) must load into indexes with bit-identical lists,
// while the posting side of the latest file is materially smaller. That
// every algorithm answers identically over every image version is
// oracle_test's image axis. Committed images that still carry the retired
// by-id section must load and answer like a fresh build.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/selector.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeWordRecords;

constexpr size_t kRecords = 600;

// Opts in to the sketch tier so the latest image carries a sketch section
// for the payload and determinism cases below.
BuildOptions TestBuild() {
  BuildOptions build;
  build.tokenizer.q = 3;
  build.build_sql_baseline = true;
  build.index.build_sketches = true;
  build.index.page_bytes = 512;
  build.btree_page_bytes = 512;
  return build;
}

/// One selector per format version, loaded through a Save/Load round trip.
struct VersionedSelectors {
  SimilaritySelector built;   // never serialized (the reference)
  SimilaritySelector via_v2;  // Save(v2) -> Load
  SimilaritySelector via_v3;  // Save(v3) -> Load

  static VersionedSelectors Make() {
    std::vector<std::string> records = MakeWordRecords(kRecords, 0xFEED);
    SimilaritySelector built = SimilaritySelector::Build(records, TestBuild());
    auto roundtrip = [&records, &built](uint32_t version) {
      std::string path = ::testing::TempDir() + "index_version_test_v" +
                         std::to_string(version) + ".simsel";
      EXPECT_TRUE(built.SaveIndex(path, version).ok());
      Result<SimilaritySelector> loaded =
          SimilaritySelector::BuildWithSavedIndex(records, path, TestBuild());
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::remove(path.c_str());
      return std::move(*loaded);
    };
    SimilaritySelector via_v2 = roundtrip(InvertedIndex::kVersionLegacy);
    SimilaritySelector via_v3 = roundtrip(InvertedIndex::kVersionLatest);
    return VersionedSelectors{std::move(built), std::move(via_v2),
                              std::move(via_v3)};
  }
};

VersionedSelectors& Selectors() {
  static VersionedSelectors* s = new VersionedSelectors(
      VersionedSelectors::Make());
  return *s;
}

TEST(IndexVersionTest, LoadedIndexesValidate) {
  EXPECT_TRUE(Selectors().via_v2.index().Validate());
  EXPECT_TRUE(Selectors().via_v3.index().Validate());
}

TEST(IndexVersionTest, LoadedListsAreBitIdentical) {
  const InvertedIndex& a = Selectors().via_v2.index();
  const InvertedIndex& b = Selectors().via_v3.index();
  ASSERT_EQ(a.num_tokens(), b.num_tokens());
  ASSERT_EQ(a.total_postings(), b.total_postings());
  for (TokenId t = 0; t < a.num_tokens(); ++t) {
    ASSERT_EQ(a.ListSize(t), b.ListSize(t));
    const size_t n = a.ListSize(t);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.LenIds(t)[i], b.LenIds(t)[i]) << "t=" << t << " i=" << i;
      // Exact bit equality, not approximate: the compressed codec is
      // lossless by contract.
      ASSERT_EQ(a.LenLens(t)[i], b.LenLens(t)[i]) << "t=" << t << " i=" << i;
    }
  }
}

TEST(IndexVersionTest, CompressedPayloadMateriallySmaller) {
  const InvertedIndex& index = Selectors().built.index();
  IndexFileStats v2 = index.EncodedStats(InvertedIndex::kVersionLegacy);
  IndexFileStats v4 = index.EncodedStats(InvertedIndex::kVersionLatest);
  ASSERT_GT(v2.len_payload_bytes, 0u);
  ASSERT_GT(v4.len_payload_bytes, 0u);
  // The acceptance bar: compressed by-length payload at least 25% smaller.
  EXPECT_LE(v4.len_payload_bytes * 4, v2.len_payload_bytes * 3)
      << "v2 len payload " << v2.len_payload_bytes << " vs v4 "
      << v4.len_payload_bytes;
  // The latest format adds the sketch section, which is new payload (k
  // 64-bit words per set), not posting compression — compare the posting
  // side of the file net of it.
  EXPECT_GT(v4.sketch_payload_bytes,
            kRecords * index.sketch_params().k * sizeof(uint64_t) - 1);
  EXPECT_LT(v4.file_bytes - v4.sketch_payload_bytes, v2.file_bytes);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Every build pass is deterministic per token, set or band, so the thread
// count must not leak into the saved image — the sketch section included.
TEST(IndexVersionTest, LatestImageIsIndependentOfBuildThreads) {
  std::vector<std::string> records = MakeWordRecords(kRecords, 0xFEED);
  std::vector<std::string> images;
  for (size_t threads : {1, 4}) {
    BuildOptions build = TestBuild();
    build.index.build_threads = threads;
    SimilaritySelector sel = SimilaritySelector::Build(records, build);
    ASSERT_TRUE(sel.index().has_sketches());
    std::string path = ::testing::TempDir() + "index_version_test_threads" +
                       std::to_string(threads) + ".simsel";
    ASSERT_TRUE(sel.SaveIndex(path, InvertedIndex::kVersionLatest).ok());
    images.push_back(ReadFileBytes(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(images[0].empty());
  EXPECT_TRUE(images[0] == images[1])
      << "v4 images differ between build_threads 1 and 4 ("
      << images[0].size() << " vs " << images[1].size() << " bytes)";
}

// Images saved by the last build that kept a second, id-sorted list order
// (tests/data/README.md). Load skips their by-id section; the lists, and
// every algorithm's ids and score bits, must equal a fresh build's.
TEST(IndexVersionTest, TwoOrderImagesLoadAndAnswerLikeAFreshBuild) {
  Result<Corpus> corpus =
      LoadCorpusFromFile(SIMSEL_TEST_DATA_DIR "/two_orders_records.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const std::vector<std::string>& records = corpus->records;
  for (uint32_t version : {2u, 3u, 4u}) {
    const std::string name = "two_orders_v" + std::to_string(version);
    // The images were built with simsel_cli's defaults; v4 with
    // --sketch-k=16, which sets bands to k / rows.
    BuildOptions build;
    build.build_sql_baseline = true;
    if (version == 4) {
      build.index.build_sketches = true;
      build.index.sketch.k = 16;
      build.index.sketch.bands = 16 / build.index.sketch.rows;
    }
    const SimilaritySelector fresh = SimilaritySelector::Build(records, build);
    Result<SimilaritySelector> loaded = SimilaritySelector::BuildWithSavedIndex(
        records, SIMSEL_TEST_DATA_DIR "/" + name + ".simsel", build);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    const InvertedIndex& a = fresh.index();
    const InvertedIndex& b = loaded->index();
    ASSERT_EQ(a.num_tokens(), b.num_tokens()) << name;
    ASSERT_EQ(a.total_postings(), b.total_postings()) << name;
    EXPECT_EQ(b.has_sketches(), version == 4) << name;
    for (TokenId t = 0; t < a.num_tokens(); ++t) {
      ASSERT_EQ(a.ListSize(t), b.ListSize(t)) << name << " t=" << t;
      for (size_t i = 0; i < a.ListSize(t); ++i) {
        ASSERT_EQ(a.LenIds(t)[i], b.LenIds(t)[i]) << name << " t=" << t;
        ASSERT_EQ(std::bit_cast<uint32_t>(a.LenLens(t)[i]),
                  std::bit_cast<uint32_t>(b.LenLens(t)[i]))
            << name << " t=" << t;
      }
    }
    for (AlgorithmKind kind :
         {AlgorithmKind::kLinearScan, AlgorithmKind::kSql,
          AlgorithmKind::kSortById, AlgorithmKind::kTa, AlgorithmKind::kNra,
          AlgorithmKind::kIta, AlgorithmKind::kInra, AlgorithmKind::kSf,
          AlgorithmKind::kHybrid, AlgorithmKind::kPrefixFilter}) {
      for (size_t s = 0; s < records.size(); s += 7) {
        for (double tau : {0.4, 0.8}) {
          const std::string context = name + " " + AlgorithmKindName(kind) +
                                      " record " + std::to_string(s) +
                                      " tau " + std::to_string(tau);
          const QueryResult want = fresh.Select(records[s], tau, kind);
          const QueryResult got = loaded->Select(records[s], tau, kind);
          ASSERT_TRUE(want.complete() && got.complete()) << context;
          testing_util::ExpectSameMatches(want.matches, got.matches, context);
        }
      }
    }
  }
}

}  // namespace
}  // namespace simsel
