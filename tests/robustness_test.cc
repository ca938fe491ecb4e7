#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "storage/codec.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Saved index corruption fuzzing. ---

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

// The header slot of the retired per-list hashes' build flag is ignored on
// Load: a valid v3 image with that byte cleared (and its checksum
// recomputed) loads and answers TA and iTA with the ids and score bits of a
// fresh build, since every index serves random access from its summaries.
TEST(RobustnessTest, ClearedHashFlagStillAnswersTa) {
  const std::vector<std::string> records =
      testing_util::MakeWordRecords(200, /*seed=*/39);
  const SimilaritySelector fresh = SimilaritySelector::Build(records);
  const std::string path = TempPath("simsel_no_hash_flag.idx");
  ASSERT_TRUE(fresh.SaveIndex(path, InvertedIndex::kVersionBlocks).ok());
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // [16-byte file header][magic, version, page bytes, retired skip fanout,
  // retired hash page bytes, block postings, by-id flag, skip flag, hash
  // flag][...][8-byte footer].
  const size_t hash_flag = 16 + 42;
  ASSERT_GT(bytes.size(), hash_flag + 8);
  ASSERT_EQ(bytes[hash_flag], 1);
  bytes[hash_flag] = 0;
  const size_t footer = bytes.size() - 8;
  const uint64_t sum = Fnv1a64(bytes.data(), footer);
  std::memcpy(bytes.data() + footer, &sum, 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (AlgorithmKind kind : {AlgorithmKind::kTa, AlgorithmKind::kIta}) {
    for (SetId s = 0; s < records.size(); s += 7) {
      for (double tau : {0.6, 0.8}) {
        const QueryResult want = fresh.Select(records[s], tau, kind, {});
        const QueryResult got = loaded->Select(records[s], tau, kind, {});
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();
        EXPECT_EQ(testing_util::MatchDifference(want.matches, got.matches),
                  "")
            << AlgorithmKindName(kind) << " record " << s << " tau " << tau;
      }
    }
  }
}

// Seeded structural mutations of saved v2, v3 and v4 index images, of the
// committed v2, v3 and v4 images that still carry a by-id section (see
// tests/data/README.md), and of a posting-store image, each with its FNV-1a
// footer recomputed so the edit
// reaches the decoders instead of the checksum: a flipped byte, or a hostile
// 64-bit value (a length, count or offset of 2^32 or more, or NaN lengths)
// written fixed or as a varint at a random position, and the same values at
// the header's payload length and at the fields that size allocations.
// Every load must return a Status or a value, and an image that loads must
// answer every query with an answer or a Status.
TEST(RobustnessTest, MutatedImagesLoadOrFailCleanly) {
  const std::vector<std::string> records =
      testing_util::MakeWordRecords(80, /*seed=*/38);
  BuildOptions build;
  build.index.build_sketches = true;  // v4 images carry the sketch section
  build.index.page_bytes = 512;
  const SimilaritySelector original = SimilaritySelector::Build(records, build);
  const std::string path = TempPath("simsel_mutated.img");
  auto read_file = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  };
  // Either image is [16-byte header][payload][8-byte footer]; the header's
  // second word is the payload length.
  constexpr size_t kHeader = 16;
  // Counts and offsets of 2^32 and more, and a pair of NaN floats (a
  // length no posting can carry).
  constexpr uint64_t kHostile[] = {uint64_t{1} << 61, uint64_t{1} << 62,
                                   ~uint64_t{0}, uint64_t{1} << 32,
                                   (uint64_t{1} << 32) - 1,
                                   0x7FC000007FC00000};
  constexpr size_t kValues = std::size(kHostile);
  struct Image {
    std::string name;
    std::vector<uint8_t> bytes;
    std::vector<size_t> fields;  // byte offsets of allocation-sizing fields
    const std::vector<std::string>* records;  // the records it indexes
  };
  // Block size, offset count and first offset of the index header.
  const std::vector<size_t> index_fields = {8, kHeader + 32, kHeader + 43,
                                            kHeader + 51};
  std::vector<Image> images;
  for (uint32_t version :
       {InvertedIndex::kVersionLegacy, InvertedIndex::kVersionBlocks,
        InvertedIndex::kVersionLatest}) {
    ASSERT_TRUE(original.SaveIndex(path, version).ok());
    images.push_back({"v" + std::to_string(version), read_file(),
                      index_fields, &records});
  }
  Result<Corpus> two_orders =
      LoadCorpusFromFile(SIMSEL_TEST_DATA_DIR "/two_orders_records.txt");
  ASSERT_TRUE(two_orders.ok()) << two_orders.status().ToString();
  for (int version : {2, 3, 4}) {
    const std::string name = "two_orders_v" + std::to_string(version);
    std::ifstream in(SIMSEL_TEST_DATA_DIR "/" + name + ".simsel",
                     std::ios::binary);
    images.push_back({name,
                      std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                           {}),
                      index_fields, &two_orders->records});
    ASSERT_FALSE(images.back().bytes.empty()) << name;
  }
  ASSERT_TRUE(PostingStore::Build(original.index()).Save(path).ok());
  std::vector<uint8_t> store_bytes = read_file();
  uint64_t dir_size = 0;
  std::memcpy(&dir_size, store_bytes.data() + store_bytes.size() - 16, 8);
  const size_t dir = store_bytes.size() - 8 - dir_size;
  // Token count, block size and first list offset of the directory.
  images.push_back({"store",
                    std::move(store_bytes),
                    {8, dir, dir + 8, dir + 16},
                    &records});

  std::mt19937_64 rng(20261019);
  size_t loaded = 0;
  for (const Image& image : images) {
    for (size_t trial = 0; trial < 60; ++trial) {
      std::vector<uint8_t> bytes = image.bytes;
      const size_t footer = bytes.size() - 8;
      const bool targeted = trial < image.fields.size() * kValues;
      size_t at = targeted ? image.fields[trial / kValues]
                           : kHeader + rng() % (footer - kHeader);
      const uint64_t value = kHostile[targeted ? trial % kValues
                                               : rng() % kValues];
      std::vector<uint8_t> edit;
      switch (targeted ? 1 : rng() % 3) {
        case 0:
          edit.push_back(static_cast<uint8_t>(bytes[at] ^ (1 + rng() % 255)));
          break;
        case 1:
          PutFixed64(&edit, value);
          break;
        default:
          PutVarint64(&edit, value);
          break;
      }
      at = std::min(at, footer - edit.size());
      std::memcpy(bytes.data() + at, edit.data(), edit.size());
      const uint64_t sum = Fnv1a64(bytes.data(), footer);
      std::memcpy(bytes.data() + footer, &sum, 8);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
      }
      const std::string context =
          image.name + " trial " + std::to_string(trial);
      const std::vector<std::string>& image_records = *image.records;
      auto answer_or_status = [&](const SimilaritySelector& sel,
                                  const SelectOptions& options) {
        for (AlgorithmKind kind :
             {AlgorithmKind::kLinearScan, AlgorithmKind::kSortById,
              AlgorithmKind::kTa, AlgorithmKind::kNra, AlgorithmKind::kIta,
              AlgorithmKind::kInra, AlgorithmKind::kSf,
              AlgorithmKind::kHybrid, AlgorithmKind::kPrefixFilter}) {
          for (SetId s : {0u, 7u, 41u}) {
            const QueryResult r =
                sel.Select(image_records[s], 0.6, kind, options);
            EXPECT_TRUE(r.status.ok() || r.matches.empty()) << context;
          }
        }
      };
      if (image.name == "store") {
        Result<PostingStore> store = PostingStore::Load(path, records.size());
        if (!store.ok()) continue;
        ++loaded;
        SelectOptions disk;
        disk.posting_store = &*store;
        answer_or_status(original, disk);
      } else {
        Result<SimilaritySelector> sel =
            SimilaritySelector::BuildWithSavedIndex(image_records, path, build);
        if (!sel.ok()) continue;
        ++loaded;
        const PostingStore store = PostingStore::Build(sel->index());
        SelectOptions disk;
        disk.posting_store = &store;
        answer_or_status(*sel, {});
        answer_or_status(*sel, disk);
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0u);  // some edits land where the image still decodes
}

}  // namespace
}  // namespace simsel
