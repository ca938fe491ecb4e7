#ifndef SIMSEL_STORAGE_BUFFER_POOL_H_
#define SIMSEL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace simsel {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// LRU buffer pool simulator.
///
/// The paper's indexes are disk-resident and "caching [is left] up to the
/// operating system and the disk drive". This class models that cache: each
/// page the cursors or membership probes touch is looked up in an LRU of
/// `capacity` frames; a miss is a physical disk read, a hit is free. Wire a
/// pool into SelectOptions::buffer_pool to measure how the algorithms'
/// access patterns (SF's short sequential bursts vs TA's random probes)
/// behave under different cache sizes — the bench_buffer_pool harness does
/// exactly that.
///
/// Thread-safe: the frame table is sharded by key hash with one mutex and
/// one LRU chain per shard (capacity split evenly across shards), so
/// concurrent queries sharing one pool serialize only when their pages land
/// in the same shard. Hit/miss/eviction tallies are relaxed atomics. Small
/// pools (fewer than 2 * kFramesPerShard frames) keep a single shard, i.e.
/// exact global LRU order; large serving pools trade that for concurrency —
/// eviction is then LRU *within* the victim page's shard, which for a
/// hash-spread working set is statistically indistinguishable from global
/// LRU.
class BufferPool {
 public:
  /// Frames per shard the auto-sharding policy aims for, and the cap on the
  /// number of shards.
  static constexpr size_t kFramesPerShard = 64;
  static constexpr size_t kMaxShards = 16;

  /// `capacity` frames (pages), must be >= 1. `num_shards` 0 picks
  /// max(1, min(kMaxShards, capacity / kFramesPerShard)) rounded down to a
  /// power of two.
  explicit BufferPool(size_t capacity, size_t num_shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Touches page `key` (any stable 64-bit page identity). Returns true on
  /// a cache hit; on a miss the page is faulted in, evicting the LRU page
  /// of the key's shard if that shard is full. Safe to call concurrently.
  bool Touch(uint64_t key);

  /// Composes a page identity from a file/structure id and page number.
  static uint64_t PageKey(uint32_t file_id, uint64_t page_number) {
    return (static_cast<uint64_t>(file_id) << 40) ^ page_number;
  }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  /// Resident pages right now (locks each shard briefly; a snapshot, not a
  /// linearizable count, under concurrent Touch traffic).
  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  double HitRate() const {
    uint64_t h = hits();
    uint64_t total = h + misses();
    return total == 0 ? 0.0 : static_cast<double>(h) / total;
  }

  /// Empties the pool (cold cache) and optionally the instance statistics.
  /// The process-wide resident-pages gauge is reconciled (decremented by the
  /// dropped page count); the simsel_buffer_pool_* counters are monotone
  /// process totals and are never reset.
  void Clear(bool reset_stats = true);

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map;
    size_t capacity = 0;
  };

  size_t ShardIndex(uint64_t key) const {
    // Fibonacci mix so sequential page numbers spread across shards.
    return ((key * 0x9E3779B97F4A7C15ull) >> 32) & shard_mask_;
  }

  size_t capacity_;
  size_t shard_mask_;  // num shards - 1 (power of two)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  // Process-wide mirrors (simsel_buffer_pool_*), pooled across instances.
  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* evictions_metric_;
  obs::Gauge* resident_metric_;
};

}  // namespace simsel

#endif  // SIMSEL_STORAGE_BUFFER_POOL_H_
