#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "container/extendible_hash.h"

namespace simsel {
namespace {

TEST(ExtendibleHashTest, InsertAndLookup) {
  ExtendibleHash hash(1024);
  hash.Insert(42, 1.5f);
  float v = 0;
  EXPECT_TRUE(hash.Lookup(42, &v));
  EXPECT_FLOAT_EQ(v, 1.5f);
  EXPECT_FALSE(hash.Lookup(43));
  EXPECT_EQ(hash.size(), 1u);
}

TEST(ExtendibleHashTest, OverwriteDoesNotGrow) {
  ExtendibleHash hash(1024);
  hash.Insert(7, 1.0f);
  hash.Insert(7, 2.0f);
  EXPECT_EQ(hash.size(), 1u);
  float v = 0;
  EXPECT_TRUE(hash.Lookup(7, &v));
  EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(ExtendibleHashTest, Erase) {
  ExtendibleHash hash(1024);
  hash.Insert(1, 1.0f);
  hash.Insert(2, 2.0f);
  EXPECT_TRUE(hash.Erase(1));
  EXPECT_FALSE(hash.Erase(1));
  EXPECT_FALSE(hash.Lookup(1));
  EXPECT_TRUE(hash.Lookup(2));
  EXPECT_EQ(hash.size(), 1u);
}

TEST(ExtendibleHashTest, ManyKeysAllRetrievable) {
  ExtendibleHash hash(256);  // small pages force many splits
  std::unordered_map<uint64_t, float> reference;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextU64() % 30000;
    float value = static_cast<float>(rng.NextDouble());
    hash.Insert(key, value);
    reference[key] = value;
  }
  EXPECT_EQ(hash.size(), reference.size());
  for (const auto& [key, value] : reference) {
    float v = 0;
    ASSERT_TRUE(hash.Lookup(key, &v)) << key;
    EXPECT_FLOAT_EQ(v, value);
  }
  // Absent keys still miss.
  for (uint64_t key = 30001; key < 30100; ++key) {
    EXPECT_FALSE(hash.Lookup(key));
  }
}

TEST(ExtendibleHashTest, DirectoryGrowsUnderLoad) {
  ExtendibleHash hash(256);
  for (uint64_t i = 0; i < 5000; ++i) hash.Insert(i, 0.0f);
  EXPECT_GT(hash.global_depth(), 3);
  EXPECT_GT(hash.num_buckets(), 16u);
  EXPECT_EQ(hash.directory_entries(), 1u << hash.global_depth());
  EXPECT_GE(hash.directory_entries(), hash.num_buckets());
}

TEST(ExtendibleHashTest, SequentialKeysNoClustering) {
  ExtendibleHash hash(512);
  for (uint64_t i = 0; i < 10000; ++i) {
    hash.Insert(i, static_cast<float>(i));
  }
  for (uint64_t i = 0; i < 10000; i += 97) {
    float v = -1;
    ASSERT_TRUE(hash.Lookup(i, &v));
    EXPECT_FLOAT_EQ(v, static_cast<float>(i));
  }
}

TEST(ExtendibleHashTest, LookupChargesExactlyOnePage) {
  ExtendibleHash hash(1024);
  for (uint64_t i = 0; i < 1000; ++i) hash.Insert(i, 0.0f);
  uint64_t pages = 0;
  hash.Lookup(5, nullptr, &pages);
  EXPECT_EQ(pages, 1u);
  hash.Lookup(999999, nullptr, &pages);  // miss also fetches the page
  EXPECT_EQ(pages, 2u);
}

TEST(ExtendibleHashTest, SizeBytesTracksBucketsAndDirectory) {
  ExtendibleHash hash(1024);
  size_t initial = hash.SizeBytes();
  for (uint64_t i = 0; i < 2000; ++i) hash.Insert(i, 0.0f);
  EXPECT_GT(hash.SizeBytes(), initial);
  EXPECT_EQ(hash.SizeBytes(), hash.num_buckets() * 1024 +
                                  hash.directory_entries() * sizeof(uint64_t));
}

TEST(ExtendibleHashTest, BucketCapacityFromPageSize) {
  ExtendibleHash small(128);
  ExtendibleHash large(4096);
  EXPECT_LT(small.bucket_capacity(), large.bucket_capacity());
  EXPECT_EQ(small.bucket_capacity(), (128u - 8u) / 12u);
}

TEST(ExtendibleHashTest, ProbePageIdsAgreeAcrossEqualHashes) {
  // iTA keys its buffer-pool probes by ProbePageId, so two hashes built
  // from the same inserts must name every bucket page alike — a heap
  // address would make the pool's misses change from run to run.
  ExtendibleHash a(256);
  ExtendibleHash b(256);
  for (uint64_t k = 0; k < 3000; ++k) {
    a.Insert(k * 7919, static_cast<float>(k));
    b.Insert(k * 7919, static_cast<float>(k));
  }
  ASSERT_GT(a.num_buckets(), 1u);
  for (uint64_t k = 0; k < 6000; ++k) {
    EXPECT_EQ(a.ProbePageId(k * 7919), b.ProbePageId(k * 7919)) << k;
  }
}

TEST(ExtendibleHashTest, EraseThenReinsert) {
  ExtendibleHash hash(256);
  for (uint64_t i = 0; i < 1000; ++i) hash.Insert(i, 1.0f);
  for (uint64_t i = 0; i < 1000; i += 2) EXPECT_TRUE(hash.Erase(i));
  EXPECT_EQ(hash.size(), 500u);
  for (uint64_t i = 0; i < 1000; i += 2) hash.Insert(i, 2.0f);
  EXPECT_EQ(hash.size(), 1000u);
  float v = 0;
  EXPECT_TRUE(hash.Lookup(0, &v));
  EXPECT_FLOAT_EQ(v, 2.0f);
  EXPECT_TRUE(hash.Lookup(1, &v));
  EXPECT_FLOAT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace simsel
