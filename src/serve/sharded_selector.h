#ifndef SIMSEL_SERVE_SHARDED_SELECTOR_H_
#define SIMSEL_SERVE_SHARDED_SELECTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/selector.h"
#include "core/types.h"
#include "serve/result_cache.h"

namespace simsel::serve {

/// Construction knobs for the serving layer.
struct ShardedSelectorOptions {
  /// Number of collection partitions (BuildOptions::num_segments).
  size_t num_shards = 4;
  /// Tokenizer / index knobs of the selector. Its num_segments, disk_mode
  /// and pool_pages come from the fields below and must stay at their
  /// defaults here (a checked error otherwise).
  BuildOptions build;
  /// Serve postings from per-shard disk-resident PostingStores
  /// (BuildOptions::disk_mode).
  bool disk_mode = false;
  /// Frames of the per-shard BufferPools in disk mode, split across shards
  /// (BuildOptions::pool_pages). 0 = no pools.
  size_t pool_pages = 0;
  /// Byte budget of the result cache in front of the selector. 0 = no cache.
  size_t cache_bytes = 0;
};

/// A read-only K-segment SimilaritySelector with a result cache in front:
/// the serving layer's immutable front door. Segments, exactness, the
/// fan-out, sibling cancellation and tracing are the selector's (see
/// SimilaritySelector); this class adds only the cache.
///
/// **Caching.** With `cache_bytes > 0`, complete (untripped, OK) answers of
/// queries without an active QueryControl are cached under the full query
/// fingerprint (ResultCache::MakeKey) through serve::CachedSelect, the
/// sequence DynamicServing uses too. The selector is immutable after Build,
/// so every entry is stamped with one generation at cut 0 and never goes
/// stale, and every answer — cached or not — carries the constant
/// QueryResult::snapshot_version kVersion.
///
/// Thread-compatible after Build: const queries may run concurrently (the
/// cache is internally synchronized). The nested fan-out rule of
/// SimilaritySelector applies to set_thread_pool.
class ShardedSelector {
 public:
  /// Tokenizes and indexes `records` into `options.num_shards` shards
  /// (record i becomes global SetId i).
  static ShardedSelector Build(const std::vector<std::string>& records,
                               const ShardedSelectorOptions& options = {});

  /// The QueryResult::snapshot_version of every answer (the collection
  /// never changes after Build).
  static constexpr uint64_t kVersion = 1;

  /// Workers for the shard fan-out (SimilaritySelector::set_thread_pool).
  void set_thread_pool(ThreadPool* pool) { selector_.set_thread_pool(pool); }

  /// Cache-fronted SimilaritySelector::Select. `options.posting_store` /
  /// `options.buffer_pool` are ignored with more than one shard or in disk
  /// mode: storage binding is per shard.
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                             AlgorithmKind kind,
                             const SelectOptions& options) const;

  size_t num_shards() const { return selector_.num_segments(); }
  SetId shard_begin(size_t shard) const {
    return selector_.segment(shard).begin;
  }
  SetId shard_end(size_t shard) const { return selector_.segment(shard).end; }
  const InvertedIndex& shard_index(size_t shard) const {
    return *selector_.segment(shard).index;
  }

  const Tokenizer& tokenizer() const { return selector_.tokenizer(); }
  const Collection& collection() const { return selector_.collection(); }
  const IdfMeasure& measure() const { return selector_.measure(); }

  /// Result cache, or null when built with cache_bytes == 0.
  ResultCache* result_cache() const { return cache_.get(); }

 private:
  explicit ShardedSelector(SimilaritySelector selector)
      : selector_(std::move(selector)) {}

  SimilaritySelector selector_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace simsel::serve

#endif  // SIMSEL_SERVE_SHARDED_SELECTOR_H_
