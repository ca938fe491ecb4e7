#ifndef SIMSEL_SERVE_RESULT_CACHE_H_
#define SIMSEL_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/internal.h"
#include "core/types.h"
#include "sim/measure.h"

namespace simsel {

namespace obs {
class Counter;
class Gauge;
class QueryTrace;
}  // namespace obs

namespace serve {

/// Construction knobs for the serving layer's result cache.
struct ResultCacheOptions {
  /// Byte budget across all shards (keys + matches + per-entry overhead).
  /// Must be >= 1; an entry larger than its shard's slice is simply not
  /// cached.
  size_t capacity_bytes = 64u << 20;
  /// 0 picks max(1, min(16, capacity_bytes / 4MiB)) rounded down to a power
  /// of two — the same auto-sharding idea as BufferPool: small caches keep
  /// exact global LRU, serving-sized caches trade it for concurrency.
  size_t num_shards = 0;
};

/// The cached portion of a QueryResult: exactly what is identical across
/// re-executions of a complete query — the matches with their canonical
/// scores and the access counters of the execution that filled the entry.
/// Termination/status are not stored (only complete, OK results are ever
/// inserted) and the trace pointer is per-execution by contract.
struct CachedResult {
  std::vector<Match> matches;
  AccessCounters counters;
};

/// Sharded LRU cache of complete query answers, keyed by the full query
/// fingerprint and stamped with the owning index's *epoch* (the version of
/// the collection that produced the answer).
///
/// Invalidation is O(1) and scan-free: a collection update bumps the epoch
/// (DynamicSelector::version; a ShardedSelector never changes, so its
/// epoch is the constant ShardedSelector::kVersion), and every entry
/// carrying an older stamp is treated as a miss — and erased — the next
/// time its key is looked up. Nothing walks the cache. Front doors reach
/// the cache through CachedSelect below.
///
/// Thread-safe: entries are sharded by key hash with one mutex, one LRU
/// chain and one byte budget per shard (the BufferPool recipe); hit/miss/
/// insertion/eviction/invalidation tallies are relaxed atomics mirrored
/// into the process-wide `simsel_result_cache_*` metric family, and the
/// resident-bytes gauge is reconciled on Clear and destruction.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Renders the query fingerprint every answer-affecting input feeds into:
  /// the prepared tokens with their query-side tfs (already normalized —
  /// distinct, ascending TokenId), the *clamped* τ and the query normalizer
  /// (bit patterns, so distinct unknown-token mass never aliases), the
  /// algorithm, the measure name, and the SelectOptions ablation toggles +
  /// `disk_mode` bit (they change counters, so distinct configurations must
  /// not share entries; the serving layer passes its own storage binding,
  /// not the caller's, which it ignores). Deadline/budget/cancel are
  /// deliberately excluded: they bound execution, never the complete answer,
  /// and only complete answers are cached.
  static std::string MakeKey(const PreparedQuery& q, double clamped_tau,
                             AlgorithmKind kind, const SelectOptions& options,
                             bool disk_mode, std::string_view measure_name);

  /// Looks `key` up at `epoch`. A fresh entry is copied into `*out` (moved
  /// to the front of its shard's LRU) and counted as a hit; a missing key is
  /// a miss; a stale-epoch entry is erased and counted as both an
  /// invalidation and a miss.
  bool Lookup(const std::string& key, uint64_t epoch, CachedResult* out);

  /// The lookup half of CachedSelect, timed and traced (into
  /// `options.trace`) as the serving stage `cache_lookup`: renders the
  /// query's key (MakeKey) into `*key` and, on a fresh hit at `epoch`, fills
  /// `*out` with the cached matches and counters.
  bool LookupQuery(const PreparedQuery& q, double clamped_tau,
                   AlgorithmKind kind, const SelectOptions& options,
                   bool disk_mode, std::string_view measure_name,
                   uint64_t epoch, std::string* key, QueryResult* out);

  /// Inserts (or replaces) the entry for `key` at `epoch`. Call only with
  /// complete, OK results — the caller checks QueryResult::complete().
  /// Evicts from the tail of the key's shard until the entry fits; an entry
  /// larger than the whole shard budget is dropped without disturbing the
  /// cache.
  void Insert(const std::string& key, uint64_t epoch,
              const std::vector<Match>& matches, const AccessCounters& counters);

  /// Drops every entry (the instance tallies stay; the process-wide gauge is
  /// reconciled).
  void Clear();

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Resident bytes / entries right now (locks each shard briefly; a
  /// snapshot under concurrent traffic).
  size_t size_bytes() const;
  size_t entries() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t insertions() const {
    return insertions_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  double HitRate() const {
    uint64_t h = hits();
    uint64_t total = h + misses();
    return total == 0 ? 0.0 : static_cast<double>(h) / total;
  }

  /// Bytes an entry occupies in the accounting (exposed for tests sizing
  /// eviction scenarios).
  static size_t EntryBytes(const std::string& key, size_t num_matches);

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    size_t bytes = 0;
    CachedResult result;
  };
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> map;
    size_t capacity = 0;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  /// Unlinks `it` from `shard` (map, LRU chain, byte count + gauge).
  void Erase(Shard* shard, std::list<Entry>::iterator it);

  size_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  // Process-wide mirrors (simsel_result_cache_*), pooled across instances.
  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* insertions_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* invalidations_metric_;
  obs::Gauge* bytes_metric_;
};

/// The cache-fronted select sequence of the serving front doors
/// (ShardedSelector, DynamicServing), written once: look the query up at
/// `epoch` (null `cache`: skip), run `execute()` on a miss, insert the
/// answer if it is complete (a dynamic answer is complete only when its
/// delta part ran to the end), then stamp `epoch` as the result's
/// snapshot_version and point its trace at the caller's `options.trace`.
/// τ is clamped (internal::ClampTau) once here: the key fingerprints the
/// clamped value, and `execute(clamped_tau)` runs with it.
template <class Execute>
QueryResult CachedSelect(ResultCache* cache, const PreparedQuery& q,
                         double tau, AlgorithmKind kind,
                         const SelectOptions& options, bool disk_mode,
                         std::string_view measure_name, uint64_t epoch,
                         Execute&& execute) {
  const double clamped_tau = internal::ClampTau(tau);
  std::string key;
  QueryResult out;
  if (cache == nullptr ||
      !cache->LookupQuery(q, clamped_tau, kind, options, disk_mode,
                          measure_name, epoch, &key, &out)) {
    out = execute(clamped_tau);
    if (cache != nullptr && out.complete()) {
      cache->Insert(key, epoch, out.matches, out.counters);
    }
  }
  out.snapshot_version = epoch;
  out.trace = options.trace;
  return out;
}

}  // namespace serve
}  // namespace simsel

#endif  // SIMSEL_SERVE_RESULT_CACHE_H_
