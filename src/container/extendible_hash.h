#ifndef SIMSEL_CONTAINER_EXTENDIBLE_HASH_H_
#define SIMSEL_CONTAINER_EXTENDIBLE_HASH_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace simsel {

/// Extendible hash table mapping a 64-bit key to a float payload.
///
/// The paper attaches one such index per inverted list, keyed by set id, so
/// TA-style algorithms can answer "does set s appear in list i (and with
/// what length)?" with at most one random page I/O. Buckets model fixed-size
/// disk pages (the paper tuned 1 KiB pages); the directory doubles when a
/// bucket at maximum local depth overflows, exactly as in the textbook
/// structure. Lookups charge one random page read via the `page_reads`
/// out-parameter.
class ExtendibleHash {
 public:
  /// `bucket_page_bytes` sets bucket capacity: (page - header) / entry size.
  explicit ExtendibleHash(size_t bucket_page_bytes = 1024);

  /// Inserts or overwrites `key`. Splits buckets / doubles the directory as
  /// needed.
  void Insert(uint64_t key, float value);

  /// Looks up `key`. On hit stores the payload in `*value` (if non-null) and
  /// returns true. Always charges exactly one bucket-page read to
  /// `*page_reads` (if non-null): a miss still fetches the page.
  bool Lookup(uint64_t key, float* value = nullptr,
              uint64_t* page_reads = nullptr) const;

  /// Removes `key`; returns whether it was present. Buckets are not merged
  /// (deletes are rare in the workload; the structure stays valid).
  bool Erase(uint64_t key);

  /// Identity of the bucket page `key` hashes to: the bucket's creation
  /// ordinal, so two hashes built from the same inserts agree. Used as the
  /// page number when a BufferPool simulates caching of probe I/Os.
  /// Invalidated by the next Insert.
  uint64_t ProbePageId(uint64_t key) const {
    return directory_[DirSlot(key)]->ordinal;
  }

  size_t size() const { return size_; }
  /// Number of distinct buckets (several directory slots may share one).
  size_t num_buckets() const;
  size_t directory_entries() const { return directory_.size(); }
  int global_depth() const { return global_depth_; }
  size_t bucket_capacity() const { return bucket_capacity_; }

  /// Modeled disk footprint: one page per bucket plus 8 bytes per directory
  /// entry. This drives the Figure 5 index-size accounting.
  size_t SizeBytes() const;

 private:
  struct Bucket {
    int local_depth = 0;
    uint64_t ordinal = 0;  // creation order, 0 for the first bucket
    std::vector<std::pair<uint64_t, float>> entries;
  };

  size_t DirSlot(uint64_t key) const;
  void SplitBucket(size_t dir_slot);

  size_t page_bytes_;
  size_t bucket_capacity_;
  int global_depth_ = 0;
  size_t size_ = 0;
  uint64_t buckets_created_ = 0;
  std::vector<std::shared_ptr<Bucket>> directory_;
};

}  // namespace simsel

#endif  // SIMSEL_CONTAINER_EXTENDIBLE_HASH_H_
