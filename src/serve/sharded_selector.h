#ifndef SIMSEL_SERVE_SHARDED_SELECTOR_H_
#define SIMSEL_SERVE_SHARDED_SELECTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/segment.h"
#include "core/selector.h"
#include "core/types.h"
#include "serve/result_cache.h"

namespace simsel::serve {

/// Construction knobs for the serving layer.
struct ShardedSelectorOptions {
  /// Number of collection partitions (clamped to [1, #records]). Each shard
  /// gets its own InvertedIndex over a contiguous global-id range.
  size_t num_shards = 4;
  /// Tokenizer / index knobs for the global structures and every shard
  /// index. `build_sql_baseline` is ignored: the SQL baseline's clustered
  /// B-tree has no sharded form (AlgorithmKind::kSql is rejected, see
  /// Select).
  BuildOptions build;
  /// Serve postings from per-shard disk-resident PostingStores instead of
  /// the in-memory arrays.
  bool disk_mode = false;
  /// Frames of the per-shard BufferPool in disk mode (the modeled page
  /// cache, capacity split across shards). 0 = no pools.
  size_t pool_pages = 0;
  /// Byte budget of the result cache in front of the scatter-gather path.
  /// 0 = no cache.
  size_t cache_bytes = 0;
};

/// The serving layer: one `Collection` partitioned into K segments, queries
/// executed scatter-gather across a thread pool, a result cache in front.
///
/// **Exactness.** Global statistics, local postings: the tokenizer,
/// `Collection` and `IdfMeasure` (df, idf, len(s), len(q)) are built once
/// over the whole collection, and each segment's `InvertedIndex` covers the
/// contiguous global-id range [i·⌈N/K⌉, (i+1)·⌈N/K⌉) with *global* ids and
/// lengths (InvertedIndex::BuildShard). Every segment therefore scores with
/// the same numbers as a single global index, segment ranges are disjoint
/// and ascending, and the merged answer — matches concatenated in segment
/// order, counters summed — is byte-identical to the single-index answer.
/// Each segment runs through SelectSegment, the same executor a
/// SimilaritySelector uses for its one segment, so every algorithm but
/// kSql gets intra-query parallelism from the pool.
///
/// **Cancellation.** Each scatter carries a per-query sibling-cancel token
/// through `QueryControl::cancel2` (the caller's own deadline / budget /
/// cancel token propagates untouched): the first segment to trip or fail
/// records the root cause and trips the token, so sibling segments stop at
/// their next poll instead of completing doomed work. The merged result
/// reports the root cause (e.g. kDeadline), not the siblings' induced
/// kCancelled.
///
/// **Caching.** With `cache_bytes > 0`, complete (untripped, OK) answers are
/// cached under the full query fingerprint (ResultCache::MakeKey) through
/// serve::CachedSelect, the sequence DynamicServing uses too. The selector
/// is immutable after Build, so every answer — cached or not — carries the
/// constant QueryResult::snapshot_version kVersion, and entries never go
/// stale.
///
/// Thread-compatible after Build: const queries may run concurrently (the
/// cache is internally synchronized). Do not call Select from a task
/// running on the same pool: the caller blocks on its segment fan-out, and
/// a pool whose every worker does that starves (the nested fan-out rule of
/// docs/CONCURRENCY.md). Segment 0 always runs inline on the calling
/// thread, so a null or single-threaded pool degrades to serial execution
/// rather than deadlock.
class ShardedSelector {
 public:
  /// Tokenizes and indexes `records` into `options.num_shards` shards
  /// (record i becomes global SetId i).
  static ShardedSelector Build(const std::vector<std::string>& records,
                               const ShardedSelectorOptions& options = {});

  /// The QueryResult::snapshot_version of every answer (the collection
  /// never changes after Build).
  static constexpr uint64_t kVersion = 1;

  /// Workers for the segment fan-out (borrowed; null = run segments serially
  /// on the calling thread). Not synchronized with in-flight queries: set it
  /// before serving.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Scatter-gather selection; same semantics as SimilaritySelector::Select
  /// (τ clamping, bounded execution, partial results) with two differences:
  /// AlgorithmKind::kSql returns InvalidArgument, and
  /// `options.posting_store` / `options.buffer_pool` are ignored — storage
  /// binding is per segment and owned by this class (a caller-supplied store
  /// would address the wrong index).
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  PreparedQuery Prepare(std::string_view query) const;
  QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                             AlgorithmKind kind,
                             const SelectOptions& options) const;

  size_t num_shards() const { return segments_.size(); }
  SetId shard_begin(size_t shard) const { return segments_[shard].begin; }
  SetId shard_end(size_t shard) const { return segments_[shard].end; }
  const InvertedIndex& shard_index(size_t shard) const {
    return *segments_[shard].index;
  }
  bool disk_mode() const { return disk_mode_; }

  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Collection& collection() const { return *collection_; }
  const IdfMeasure& measure() const { return *measure_; }

  /// Result cache, or null when built with cache_bytes == 0.
  ResultCache* result_cache() const { return cache_.get(); }

 private:
  ShardedSelector() = default;

  /// The scatter-gather miss path; tau is already clamped.
  QueryResult Scatter(const PreparedQuery& q, double tau, AlgorithmKind kind,
                      const SelectOptions& options) const;

  Tokenizer tokenizer_;
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<IdfMeasure> measure_;
  std::vector<Segment> segments_;
  bool disk_mode_ = false;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace simsel::serve

#endif  // SIMSEL_SERVE_SHARDED_SELECTOR_H_
