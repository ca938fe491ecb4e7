#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "storage/block_codec.h"
#include "storage/buffer_pool.h"
#include "storage/codec.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = new SimilaritySelector(
      MakeSelector(400, /*seed=*/901, /*with_sql=*/false));
  return *selector;
}

const PostingStore& Store() {
  static const PostingStore* store =
      new PostingStore(PostingStore::Build(Selector().index()));
  return *store;
}

TEST(PostingStoreTest, RoundtripsEveryList) {
  const InvertedIndex& index = Selector().index();
  const PostingStore& store = Store();
  ASSERT_EQ(store.num_tokens(), index.num_tokens());
  EXPECT_EQ(store.total_postings(), index.total_postings());
  std::vector<uint32_t> ids(4096);
  std::vector<float> lens(4096);
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    size_t n = index.ListSize(t);
    ASSERT_EQ(store.ListSize(t), n);
    size_t got = store.ReadBlock(t, 0, ids.size(), ids.data(), lens.data());
    ASSERT_EQ(got, std::min(n, ids.size()));
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(ids[i], index.LenIds(t)[i]);
      ASSERT_EQ(lens[i], index.LenLens(t)[i]);
    }
  }
}

TEST(PostingStoreTest, PartialBlockReads) {
  const InvertedIndex& index = Selector().index();
  const PostingStore& store = Store();
  // Find a list with >= 10 postings and read it in odd-sized chunks.
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    size_t n = index.ListSize(t);
    if (n < 10) continue;
    std::vector<uint32_t> ids(3);
    std::vector<float> lens(3);
    for (size_t first = 0; first < n; first += 3) {
      size_t got = store.ReadBlock(t, first, 3, ids.data(), lens.data());
      ASSERT_EQ(got, std::min<size_t>(3, n - first));
      for (size_t i = 0; i < got; ++i) {
        ASSERT_EQ(ids[i], index.LenIds(t)[first + i]);
      }
    }
    // Past-the-end read returns 0.
    EXPECT_EQ(store.ReadBlock(t, n, 3, ids.data(), lens.data()), 0u);
    break;
  }
}

TEST(PostingStoreTest, SaveLoadRoundtrip) {
  const PostingStore& store = Store();
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_store.bin").string();
  ASSERT_TRUE(store.Save(path).ok());
  Result<PostingStore> loaded =
      PostingStore::Load(path, Selector().collection().size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_tokens(), store.num_tokens());
  EXPECT_EQ(loaded->total_postings(), store.total_postings());
  std::vector<uint32_t> a(64), b(64);
  std::vector<float> al(64), bl(64);
  for (TokenId t = 0; t < store.num_tokens(); t += 7) {
    size_t ga = store.ReadBlock(t, 0, 64, a.data(), al.data());
    size_t gb = loaded->ReadBlock(t, 0, 64, b.data(), bl.data());
    ASSERT_EQ(ga, gb);
    for (size_t i = 0; i < ga; ++i) {
      ASSERT_EQ(a[i], b[i]);
      ASSERT_EQ(al[i], bl[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(PostingStoreTest, LoadRejectsCorruption) {
  const PostingStore& store = Store();
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_store2.bin").string();
  ASSERT_TRUE(store.Save(path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  Result<PostingStore> loaded =
      PostingStore::Load(path, Selector().collection().size());
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// The saved image is [16-byte header][payload: lists, directory, directory
// size][FNV-1a footer]. Saves Store() to `path`, hands the payload to
// `edit(bytes, payload_begin, payload_end)`, recomputes the footer and
// writes the image back.
template <class Edit>
void SaveEdited(const std::string& path, Edit&& edit) {
  ASSERT_TRUE(Store().Save(path).ok());
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr size_t kHeader = 16;
  ASSERT_GT(bytes.size(), kHeader + 16);
  const size_t payload_end = bytes.size() - 8;
  edit(bytes, kHeader, payload_end);
  const uint64_t footer = Fnv1a64(bytes.data(), payload_end);
  std::memcpy(bytes.data() + payload_end, &footer, 8);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Runs every algorithm in disk mode over `store`: a query either fails with
// Corruption and no matches, or answers exactly as memory mode. Returns the
// number of failed queries per algorithm, in `kinds` order.
std::vector<size_t> CountCorruptQueries(
    const PostingStore& store, const std::vector<AlgorithmKind>& kinds) {
  const SimilaritySelector& sel = Selector();
  SelectOptions disk;
  disk.posting_store = &store;
  std::vector<size_t> failed;
  for (AlgorithmKind kind : kinds) {
    failed.push_back(0);
    for (double tau : {0.5, 0.8}) {
      for (SetId s = 0; s < 40; ++s) {
        PreparedQuery q = sel.Prepare(sel.collection().text(s * 9));
        QueryResult mem = sel.SelectPrepared(q, tau, kind, {});
        QueryResult dsk = sel.SelectPrepared(q, tau, kind, disk);
        if (!dsk.status.ok()) {
          EXPECT_EQ(dsk.status.code(), StatusCode::kCorruption);
          EXPECT_TRUE(dsk.matches.empty());
          ++failed.back();
          continue;
        }
        ExpectSameMatches(mem.matches, dsk.matches,
                          std::string(AlgorithmKindName(kind)) + " tau=" +
                              std::to_string(tau) + " query " +
                              std::to_string(s * 9));
      }
    }
  }
  return failed;
}

const std::vector<AlgorithmKind>& AllKinds() {
  static const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::kTa,  AlgorithmKind::kNra, AlgorithmKind::kIta,
      AlgorithmKind::kInra, AlgorithmKind::kSf, AlgorithmKind::kHybrid,
      AlgorithmKind::kPrefixFilter};
  return kinds;
}

// The image's FNV-1a footer detects accidents, not attacks: a file whose
// list bytes were altered and whose footer was recomputed passes Load. Its
// undecodable blocks must then fail the query with a Status — the read path
// used to abort the process on the first such block.
TEST(PostingStoreTest, TamperedImageFailsQueriesInsteadOfAborting) {
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_store3.bin").string();
  SaveEdited(path, [](std::vector<uint8_t>& bytes, size_t begin, size_t end) {
    uint64_t dir_size = 0;
    std::memcpy(&dir_size, bytes.data() + end - 8, 8);
    const size_t lists_end = end - dir_size;
    const size_t first = begin + (lists_end - begin) / 4;
    const size_t last = std::min(lists_end, first + 2048);
    ASSERT_LT(first, last);
    for (size_t i = first; i < last; ++i) bytes[i] ^= 0xA5;
  });
  Result<PostingStore> tampered =
      PostingStore::Load(path, Selector().collection().size());
  std::remove(path.c_str());
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  size_t failed = 0;
  for (size_t f : CountCorruptQueries(*tampered, AllKinds())) failed += f;
  EXPECT_GT(failed, 0u);  // the tampered lists were actually read
}

// A block can also decode cleanly and still name a set past the collection.
// The kernels index per-query tables by set id, so such a block must fail
// the query with Corruption as well. The edit adds one constant to every id
// of a block whose first id takes two varint bytes, moving that id to the
// largest two-byte value: the deltas, and so the block's encoded size, stay
// the same.
TEST(PostingStoreTest, OutOfRangeIdsFailQueriesWithCorruption) {
  const size_t num_sets = Selector().collection().size();
  constexpr uint32_t kShiftedFirst = (1u << 14) - 1;
  ASSERT_LE(num_sets + 1000, kShiftedFirst);
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_store4.bin").string();
  size_t shifted = 0;
  SaveEdited(path, [&](std::vector<uint8_t>& bytes, size_t begin,
                       size_t end) {
    uint64_t dir_size = 0;
    std::memcpy(&dir_size, bytes.data() + end - 8, 8);
    Decoder dir{bytes.data(), end - 8, end - dir_size};
    uint64_t num_tokens = 0, block_postings = 0;
    ASSERT_TRUE(GetFixed64(&dir, &num_tokens));
    ASSERT_TRUE(GetFixed64(&dir, &block_postings));
    std::vector<uint32_t> ids(block_postings);
    std::vector<float> lens(block_postings);
    std::vector<uint8_t> encoded;
    BlockDecodeScratch scratch;
    for (uint64_t t = 0; t < num_tokens; ++t) {
      uint64_t offset = 0;
      uint32_t count = 0;
      ASSERT_TRUE(GetVarint64(&dir, &offset));
      ASSERT_TRUE(GetVarint32(&dir, &count));
      size_t pos = begin + offset;
      for (uint32_t b = 0; b * block_postings < count; ++b) {
        uint32_t size = 0;
        ASSERT_TRUE(GetVarint32(&dir, &size));
        size_t got = 0, consumed = 0;
        ASSERT_TRUE(DecodePostingBlock(bytes.data() + pos, size,
                                       block_postings, ids.data(),
                                       lens.data(), &got, &consumed,
                                       &scratch));
        if (ids[0] >= (1u << 7) && ids[0] < kShiftedFirst) {
          const uint32_t shift = kShiftedFirst - ids[0];
          for (size_t i = 0; i < got; ++i) ids[i] += shift;
          encoded.clear();
          EncodePostingBlock(ids.data(), lens.data(), got, &encoded);
          ASSERT_EQ(encoded.size(), size);
          std::memcpy(bytes.data() + pos, encoded.data(), size);
          ++shifted;
        }
        pos += size;
      }
    }
  });
  ASSERT_GT(shifted, 0u);
  Result<PostingStore> tampered = PostingStore::Load(path, num_sets);
  std::remove(path.c_str());
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  const std::vector<size_t> failed =
      CountCorruptQueries(*tampered, AllKinds());
  for (size_t k = 0; k < failed.size(); ++k) {
    EXPECT_GT(failed[k], 0u) << AlgorithmKindName(AllKinds()[k]);
  }
}

// --- Disk-mode queries. ---

class DiskModeParam : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(DiskModeParam, SameAnswersAsMemoryMode) {
  const SimilaritySelector& sel = Selector();
  SelectOptions disk;
  disk.posting_store = &Store();
  for (double tau : {0.5, 0.8, 0.95}) {
    for (SetId s = 0; s < 12; ++s) {
      PreparedQuery q = sel.Prepare(sel.collection().text(s * 17));
      QueryResult mem = sel.SelectPrepared(q, tau, GetParam(), {});
      QueryResult dsk = sel.SelectPrepared(q, tau, GetParam(), disk);
      ExpectSameMatches(mem.matches, dsk.matches,
                        std::string(AlgorithmKindName(GetParam())) + " tau=" +
                            std::to_string(tau));
      // Disk mode must not change the element accounting either.
      EXPECT_EQ(mem.counters.elements_read, dsk.counters.elements_read);
      EXPECT_EQ(mem.counters.elements_skipped, dsk.counters.elements_skipped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, DiskModeParam,
    ::testing::Values(AlgorithmKind::kTa, AlgorithmKind::kNra,
                      AlgorithmKind::kIta, AlgorithmKind::kInra,
                      AlgorithmKind::kSf, AlgorithmKind::kHybrid,
                      AlgorithmKind::kPrefixFilter),
    [](const auto& info) {
      std::string name = AlgorithmKindName(info.param);
      return name;
    });

TEST(DiskModeTest, StoreCountsPhysicalPages) {
  const SimilaritySelector& sel = Selector();
  Store().ResetCounters();
  SelectOptions disk;
  disk.posting_store = &Store();
  // Physical-page accounting of the kernels: the sketch tier reads no
  // posting pages at all, so it is pinned off here.
  disk.prefilter = false;
  PreparedQuery q = sel.Prepare(sel.collection().text(3));
  sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, disk);
  EXPECT_GT(Store().sequential_page_reads() + Store().random_page_reads(),
            0u);
}

TEST(DiskModeTest, WorksTogetherWithBufferPool) {
  const SimilaritySelector& sel = Selector();
  BufferPool pool(100000);
  SelectOptions disk;
  disk.posting_store = &Store();
  disk.buffer_pool = &pool;
  disk.prefilter = false;  // pool accounting flows through the kernels
  PreparedQuery q = sel.Prepare(sel.collection().text(9));
  QueryResult first = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, disk);
  QueryResult second = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, disk);
  EXPECT_GT(first.counters.pool_misses, 0u);
  EXPECT_EQ(second.counters.pool_misses, 0u);
}

}  // namespace
}  // namespace simsel
