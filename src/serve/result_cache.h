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

/// Where a cached answer is exact: the rebuild generation whose frozen
/// statistics scored it, and the delta cut inside that generation (the
/// answer covers the delta records at positions below it). A collection
/// that never changes stamps one constant generation at cut 0.
struct CacheStamp {
  uint64_t generation = 0;
  uint64_t cut = 0;
};

/// The cached portion of a QueryResult: exactly what is identical across
/// re-executions of a complete query at the same stamp — the matches with
/// their canonical scores and the access counters of the execution that
/// filled the entry — plus the delta cut they are exact at.
/// Termination/status are not stored (only complete, OK results are ever
/// inserted) and the trace pointer is per-execution by contract.
struct CachedResult {
  std::vector<Match> matches;
  AccessCounters counters;
  uint64_t cut = 0;
};

/// Sharded LRU cache of complete query answers, keyed by the full query
/// fingerprint and stamped with the CacheStamp the answer is exact at.
///
/// **Lookup rule.** Token statistics are frozen between rebuilds, so an
/// answer exact at cut c of generation g is still exact at a later cut
/// c' >= c of g once the delta records at positions [c, c') that score
/// >= τ are appended (delta ids lie above every older id, so canonical
/// order holds). A lookup at (g, c') therefore hits an entry (g, c <= c')
/// and reports its cut; the front door patches the gap and re-stamps the
/// entry at c' (CachedSelect). An entry of an older generation is stale:
/// it is erased and counted as an invalidation and a miss. An entry newer
/// than the lookup (a later generation, or a later cut of g) is a miss and
/// stays. Nothing walks the cache.
///
/// The generation is stored, never derived from a version: after a
/// background rebuild that carries records appended mid-build, an old
/// generation's versions overlap the new generation's version range, and
/// patching across them would mix two sets of statistics.
///
/// Thread-safe: entries are sharded by key hash with one mutex, one LRU
/// chain and one byte budget per shard (the BufferPool recipe); hit/miss/
/// patch/insertion/eviction/invalidation tallies are relaxed atomics
/// mirrored into the process-wide `simsel_result_cache_*` metric family,
/// and the resident-bytes gauge is reconciled on Clear and destruction.
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
  /// algorithm, the measure name, and the SelectOptions ablation toggles,
  /// `prefilter` and the `disk_mode` bit (they change counters, so distinct
  /// configurations must not share entries; the serving layer passes its own
  /// storage binding, not the caller's, which it ignores). The control is
  /// not keyed: a query with an active QueryControl bypasses the cache
  /// (CachedSelect).
  static std::string MakeKey(const PreparedQuery& q, double clamped_tau,
                             AlgorithmKind kind, const SelectOptions& options,
                             bool disk_mode, std::string_view measure_name);

  /// Looks `key` up at stamp `at` under the lookup rule above. A hit copies
  /// the entry, its cut included, into `*out`, moves it to the front of its
  /// shard's LRU and counts a hit (and a patch when its cut trails
  /// `at.cut`); anything else counts a miss, and an older generation's
  /// entry is erased as an invalidation.
  bool Lookup(const std::string& key, CacheStamp at, CachedResult* out);
  /// Lookup at cut 0 of `generation`: the whole rule for a collection that
  /// never changes.
  bool Lookup(const std::string& key, uint64_t generation, CachedResult* out) {
    return Lookup(key, CacheStamp{generation, 0}, out);
  }

  /// The lookup half of CachedSelect, timed and traced (into
  /// `options.trace`) as the serving stage `cache_lookup`: renders the
  /// query's key (MakeKey) into `*key` and, on a hit at `at`, fills `*out`
  /// with the cached matches and counters and `*cut` with their cut.
  bool LookupQuery(const PreparedQuery& q, double clamped_tau,
                   AlgorithmKind kind, const SelectOptions& options,
                   bool disk_mode, std::string_view measure_name,
                   CacheStamp at, std::string* key, QueryResult* out,
                   uint64_t* cut);

  /// Stores the answer for `key` exact at `at`, replacing an entry of an
  /// older stamp in place; an entry at the same or a newer stamp stays (a
  /// reader that raced ahead already re-stamped it). Call only with
  /// complete, OK results — the caller checks QueryResult::complete().
  /// Evicts from the tail of the key's shard until the entry fits; an entry
  /// larger than the whole shard budget is dropped without disturbing the
  /// cache.
  void Insert(const std::string& key, CacheStamp at,
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
  /// Hits whose entry trailed the lookup's cut (a subset of hits()).
  uint64_t patches() const { return patches_.load(std::memory_order_relaxed); }
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
    uint64_t generation = 0;
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
  std::atomic<uint64_t> patches_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  // Process-wide mirrors (simsel_result_cache_*), pooled across instances.
  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* patches_metric_;
  obs::Counter* insertions_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* invalidations_metric_;
  obs::Gauge* bytes_metric_;
};

/// The cache-fronted select sequence of the serving front doors
/// (ShardedSelector, DynamicServing), written once. Look the query up at
/// stamp `at` (null `cache`: skip). On a miss, run `execute(clamped_tau)`
/// and insert the answer if it is complete (a dynamic answer is complete
/// only when its delta part ran to the end). On a hit whose entry trails
/// `at.cut`, run `patch(clamped_tau, entry_cut, &result)` to bring it up
/// to `at.cut`, then re-stamp the entry at `at`. A query with an active
/// QueryControl skips the cache, lookup and insert alike: it runs, and
/// trips, on its own, so a patch never runs under a control and a patched
/// hit is always complete. The result's trace points at the caller's
/// `options.trace`; the caller stamps its snapshot_version. τ is clamped
/// (internal::ClampTau) once here: the key fingerprints the clamped value,
/// and `execute` and `patch` run with it.
template <class Execute, class Patch>
QueryResult CachedSelect(ResultCache* cache, const PreparedQuery& q,
                         double tau, AlgorithmKind kind,
                         const SelectOptions& options, bool disk_mode,
                         std::string_view measure_name, CacheStamp at,
                         Execute&& execute, Patch&& patch) {
  const double clamped_tau = internal::ClampTau(tau);
  if (cache != nullptr && options.control.active()) cache = nullptr;
  std::string key;
  QueryResult out;
  uint64_t cut = 0;
  if (cache == nullptr ||
      !cache->LookupQuery(q, clamped_tau, kind, options, disk_mode,
                          measure_name, at, &key, &out, &cut)) {
    out = execute(clamped_tau);
    if (cache != nullptr && out.complete()) {
      cache->Insert(key, at, out.matches, out.counters);
    }
  } else if (cut < at.cut) {
    patch(clamped_tau, cut, &out);
    cache->Insert(key, at, out.matches, out.counters);
  }
  out.trace = options.trace;
  return out;
}

}  // namespace serve
}  // namespace simsel

#endif  // SIMSEL_SERVE_RESULT_CACHE_H_
