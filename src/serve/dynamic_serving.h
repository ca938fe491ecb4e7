#ifndef SIMSEL_SERVE_DYNAMIC_SERVING_H_
#define SIMSEL_SERVE_DYNAMIC_SERVING_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/dynamic.h"
#include "serve/result_cache.h"

namespace simsel::serve {

/// Construction knobs for the read-write serving front.
struct DynamicServingOptions {
  /// Build, segment and storage knobs of the DynamicSelector's main part
  /// (num_segments, disk_mode and pool_pages included).
  BuildOptions build;
  /// Byte budget of the result cache in front of the selector. 0 = none.
  size_t cache_bytes = 0;
  /// Kick off a *background* rebuild (on `pool`) whenever an AddRecord
  /// leaves at least this many records in the delta. 0 disables the
  /// policy; Rebuild() can always be called explicitly.
  size_t rebuild_threshold = 0;
  /// Workers for background rebuilds and for the main part's segment
  /// fan-out (borrowed). Null downgrades the rebuild policy to synchronous
  /// rebuilds on the inserting thread and runs segments serially.
  ThreadPool* pool = nullptr;
};

/// The read-write serving layer: a DynamicSelector fronted by a
/// ResultCache, with an automatic online-rebuild policy.
///
/// This is the one back end of serve::Server. Queries go through
/// CachedSelect, the same cache-fronted sequence as ShardedSelector's.
/// Every entry is stamped with the rebuild generation and delta cut of the
/// snapshot that produced it (serve::CacheStamp). Statistics are frozen
/// within a generation, so an insert invalidates nothing: a later query of
/// the same generation hits the entry and patches it with the delta part
/// over the records appended since its cut
/// (DynamicSelector::Snapshot::PatchDelta), then re-stamps it. A Rebuild
/// starts a new generation, and the old generation's entries miss and are
/// erased. The generation is stored, not derived from the version: a
/// background rebuild that carries records appended mid-build gives the
/// new generation versions the old one already had. A query racing an
/// insert presents its own snapshot's cut, so an entry re-stamped past it
/// by a faster reader is a miss for it, never a wrong hit.
///
/// Thread-safe: Select/AddRecord/Rebuild may race freely (the selector is
/// internally synchronized; the cache is sharded). Do not call Select from
/// a task running on `pool`: a query over K > 1 segments blocks on its
/// fan-out there — the usual pool-starvation rule (docs/CONCURRENCY.md).
/// Segment 0 runs on the calling thread, so a query still makes progress
/// while a rebuild holds a worker.
class DynamicServing {
 public:
  DynamicServing(const std::vector<std::string>& initial_records,
                 const DynamicServingOptions& options);

  /// Inserts a record; may trigger a background rebuild per the threshold
  /// policy. Returns the stable id.
  SetId AddRecord(std::string text);

  /// Cache-fronted selection over the current snapshot. Same contract as
  /// DynamicSelector::Select; only complete results (main and delta part)
  /// are cached.
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  /// Synchronous online rebuild (waits for a running one first).
  void Rebuild() { selector_.Rebuild(); }

  DynamicSelector& selector() { return selector_; }
  const DynamicSelector& selector() const { return selector_; }
  /// Null when built with cache_bytes == 0.
  ResultCache* result_cache() const { return cache_.get(); }
  uint64_t version() const { return selector_.version(); }

 private:
  DynamicSelector selector_;
  std::unique_ptr<ResultCache> cache_;
  size_t rebuild_threshold_;
  ThreadPool* pool_;
};

}  // namespace simsel::serve

#endif  // SIMSEL_SERVE_DYNAMIC_SERVING_H_
