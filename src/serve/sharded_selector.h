#ifndef SIMSEL_SERVE_SHARDED_SELECTOR_H_
#define SIMSEL_SERVE_SHARDED_SELECTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/selector.h"
#include "core/types.h"
#include "serve/result_cache.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"

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

/// The serving layer: one `Collection` partitioned into K shards, queries
/// executed scatter-gather across a thread pool, a versioned result cache in
/// front.
///
/// **Exactness.** Global statistics, local postings: the tokenizer,
/// `Collection` and `IdfMeasure` (df, idf, len(s), len(q)) are built once
/// over the whole collection, and each shard's `InvertedIndex` covers the
/// contiguous global-id range [i·⌈N/K⌉, (i+1)·⌈N/K⌉) with *global* ids and
/// lengths (InvertedIndex::BuildShard). Every shard therefore scores with
/// the same numbers as a single global index, shard ranges are disjoint and
/// ascending, and the merged answer — matches concatenated in shard order,
/// counters summed — is byte-identical to the single-index answer.
///
/// **Cancellation.** Each scatter carries a per-query sibling-cancel token
/// through `QueryControl::cancel2` (the caller's own deadline / budget /
/// cancel token propagates untouched): the first shard to trip or fail
/// records the root cause and trips the token, so sibling shards stop at
/// their next poll instead of completing doomed work. The merged result
/// reports the root cause (e.g. kDeadline), not the siblings' induced
/// kCancelled.
///
/// **Caching.** With `cache_bytes > 0`, complete (untripped, OK) answers are
/// cached under the full query fingerprint (ResultCache::MakeKey) stamped
/// with the current epoch. `BumpEpoch` / `SetEpoch` — wire them to whatever
/// makes the collection stale, e.g. DynamicSelector::version() — invalidate
/// every older entry in O(1), without scanning.
///
/// Thread-compatible after Build: const queries may run concurrently (the
/// cache and epoch are internally synchronized). Do not call Select from a
/// task running on the same pool: the caller blocks on its shard fan-out,
/// and a pool whose every worker does that starves (the nested-ParallelFor
/// rule of docs/CONCURRENCY.md). Shard 0 always runs inline on the calling
/// thread, so a null or single-threaded pool degrades to serial execution
/// rather than deadlock.
class ShardedSelector {
 public:
  /// Tokenizes and indexes `records` into `options.num_shards` shards
  /// (record i becomes global SetId i).
  static ShardedSelector Build(const std::vector<std::string>& records,
                               const ShardedSelectorOptions& options = {});

  // Movable (the epoch atomic forces spelling it out), not copyable.
  ShardedSelector(ShardedSelector&& other) noexcept { *this = std::move(other); }
  ShardedSelector& operator=(ShardedSelector&& other) noexcept;
  ShardedSelector(const ShardedSelector&) = delete;
  ShardedSelector& operator=(const ShardedSelector&) = delete;

  /// Workers for the shard fan-out (borrowed; null = run shards serially on
  /// the calling thread). Not synchronized with in-flight queries: set it
  /// before serving.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Scatter-gather selection; same semantics as SimilaritySelector::Select
  /// (τ clamping, bounded execution, partial results) with two differences:
  /// AlgorithmKind::kSql returns InvalidArgument, and
  /// `options.posting_store` / `options.buffer_pool` are ignored — storage
  /// binding is per shard and owned by this class (a caller-supplied store
  /// would address the wrong index).
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  PreparedQuery Prepare(std::string_view query) const;
  QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                             AlgorithmKind kind,
                             const SelectOptions& options) const;

  size_t num_shards() const { return shards_.size(); }
  SetId shard_begin(size_t shard) const { return shards_[shard].begin; }
  SetId shard_end(size_t shard) const { return shards_[shard].end; }
  const InvertedIndex& shard_index(size_t shard) const {
    return *shards_[shard].index;
  }
  bool disk_mode() const { return disk_mode_; }

  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Collection& collection() const { return *collection_; }
  const IdfMeasure& measure() const { return *measure_; }

  /// Result cache, or null when built with cache_bytes == 0.
  ResultCache* result_cache() const { return cache_.get(); }

  /// The epoch cached answers are stamped with.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  /// Marks every currently cached answer stale (O(1)). Call on any change
  /// that can alter answers — collection updates, index rebuilds.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  /// Mirrors an external monotone version counter (DynamicSelector::version)
  /// into the epoch.
  void SetEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
  }

 private:
  struct Shard {
    SetId begin = 0;
    SetId end = 0;
    std::unique_ptr<InvertedIndex> index;
    std::unique_ptr<PostingStore> store;  // disk mode only
    std::unique_ptr<BufferPool> pool;     // disk mode with pool_pages > 0
    /// Sketch prefilter tier over this shard's id range (null when the
    /// shard index carries no sketches). Shard answers stay byte-identical
    /// to the kernels', so the scatter-gather merge argument is unchanged.
    std::unique_ptr<sketch::Prefilter> prefilter;
  };

  ShardedSelector() = default;

  /// Runs `kind` over one shard with the global measure/query. `options` has
  /// already been rebound (trace stripped, cancel2 + shard storage set).
  QueryResult RunShard(const Shard& shard, const PreparedQuery& q, double tau,
                       AlgorithmKind kind, const SelectOptions& options) const;

  /// The scatter-gather miss path; tau is already clamped.
  QueryResult Scatter(const PreparedQuery& q, double tau, AlgorithmKind kind,
                      const SelectOptions& options) const;

  Tokenizer tokenizer_;
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<IdfMeasure> measure_;
  std::vector<Shard> shards_;
  bool disk_mode_ = false;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ResultCache> cache_;
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace simsel::serve

#endif  // SIMSEL_SERVE_SHARDED_SELECTOR_H_
