#include "container/extendible_hash.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/codec.h"

namespace simsel {

namespace {
// Bucket page header: local depth + entry count.
constexpr size_t kBucketHeaderBytes = 8;
// Entry on the page: 8-byte key + 4-byte payload.
constexpr size_t kEntryBytes = 12;
}  // namespace

ExtendibleHash::ExtendibleHash(size_t bucket_page_bytes)
    : page_bytes_(bucket_page_bytes),
      bucket_capacity_((bucket_page_bytes - kBucketHeaderBytes) / kEntryBytes) {
  SIMSEL_CHECK_MSG(bucket_capacity_ >= 1, "bucket page too small");
  auto bucket = std::make_shared<Bucket>();
  bucket->local_depth = 0;
  bucket->ordinal = buckets_created_++;
  directory_.push_back(std::move(bucket));
  global_depth_ = 0;
}

size_t ExtendibleHash::DirSlot(uint64_t key) const {
  uint64_t h = Fnv1a64(key);
  if (global_depth_ == 0) return 0;
  return static_cast<size_t>(h & ((1ULL << global_depth_) - 1));
}

bool ExtendibleHash::Lookup(uint64_t key, float* value,
                            uint64_t* page_reads) const {
  if (page_reads != nullptr) *page_reads += 1;  // one bucket page fetch
  const Bucket& bucket = *directory_[DirSlot(key)];
  for (const auto& [k, v] : bucket.entries) {
    if (k == key) {
      if (value != nullptr) *value = v;
      return true;
    }
  }
  return false;
}

bool ExtendibleHash::Erase(uint64_t key) {
  Bucket& bucket = *directory_[DirSlot(key)];
  for (size_t i = 0; i < bucket.entries.size(); ++i) {
    if (bucket.entries[i].first == key) {
      bucket.entries[i] = bucket.entries.back();
      bucket.entries.pop_back();
      --size_;
      return true;
    }
  }
  return false;
}

void ExtendibleHash::Insert(uint64_t key, float value) {
  for (;;) {
    size_t slot = DirSlot(key);
    Bucket& bucket = *directory_[slot];
    for (auto& [k, v] : bucket.entries) {
      if (k == key) {
        v = value;  // overwrite, no growth
        return;
      }
    }
    if (bucket.entries.size() < bucket_capacity_) {
      bucket.entries.emplace_back(key, value);
      ++size_;
      return;
    }
    SplitBucket(slot);
    // Retry: the split may not have separated this key's neighborhood yet
    // (all keys can share a longer prefix), so loop until it fits.
  }
}

void ExtendibleHash::SplitBucket(size_t dir_slot) {
  std::shared_ptr<Bucket> old_bucket = directory_[dir_slot];
  if (old_bucket->local_depth == global_depth_) {
    // Double the directory: the upper half mirrors the lower half.
    SIMSEL_CHECK_MSG(global_depth_ < 40, "extendible hash directory blow-up");
    size_t old_size = directory_.size();
    directory_.resize(old_size * 2);
    for (size_t i = 0; i < old_size; ++i) directory_[old_size + i] = directory_[i];
    ++global_depth_;
  }
  // Split the bucket on the next hash bit.
  int new_depth = old_bucket->local_depth + 1;
  auto zero = std::make_shared<Bucket>();
  auto one = std::make_shared<Bucket>();
  zero->local_depth = new_depth;
  one->local_depth = new_depth;
  zero->ordinal = buckets_created_++;
  one->ordinal = buckets_created_++;
  uint64_t bit = 1ULL << (new_depth - 1);
  for (const auto& e : old_bucket->entries) {
    ((Fnv1a64(e.first) & bit) ? one : zero)->entries.push_back(e);
  }
  // Repoint every directory slot that referenced the old bucket.
  for (size_t i = 0; i < directory_.size(); ++i) {
    if (directory_[i] == old_bucket) {
      directory_[i] = (i & bit) ? one : zero;
    }
  }
}

size_t ExtendibleHash::num_buckets() const {
  std::vector<const Bucket*> ptrs;
  ptrs.reserve(directory_.size());
  for (const auto& b : directory_) ptrs.push_back(b.get());
  std::sort(ptrs.begin(), ptrs.end());
  return static_cast<size_t>(
      std::unique(ptrs.begin(), ptrs.end()) - ptrs.begin());
}

size_t ExtendibleHash::SizeBytes() const {
  return num_buckets() * page_bytes_ + directory_.size() * sizeof(uint64_t);
}

}  // namespace simsel
