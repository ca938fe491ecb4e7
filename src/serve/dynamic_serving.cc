#include "serve/dynamic_serving.h"

#include <utility>

namespace simsel::serve {

DynamicServing::DynamicServing(const std::vector<std::string>& initial,
                               const DynamicServingOptions& options)
    : selector_(initial, options.build),
      rebuild_threshold_(options.rebuild_threshold),
      pool_(options.pool) {
  selector_.set_thread_pool(options.pool);
  if (options.cache_bytes > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity_bytes = options.cache_bytes;
    cache_ = std::make_unique<ResultCache>(cache_options);
  }
}

SetId DynamicServing::AddRecord(std::string text) {
  SetId id = selector_.AddRecord(std::move(text));
  // No cache touch needed: an entry of this generation is patched forward
  // over the new record on its next hit (CachedSelect), and one of an older
  // generation is erased on its next lookup.
  if (rebuild_threshold_ > 0 &&
      selector_.delta_size() >= rebuild_threshold_) {
    if (pool_ != nullptr) {
      // Best effort: false just means a rebuild is already folding the
      // delta we are worried about.
      selector_.StartRebuild(pool_);
    } else {
      selector_.Rebuild();
    }
  }
  return id;
}

QueryResult DynamicServing::Select(std::string_view query, double tau,
                                   AlgorithmKind kind,
                                   const SelectOptions& options) const {
  DynamicSelector::Snapshot snap = selector_.snapshot();
  PreparedQuery q = snap.Prepare(query);
  // The stamp is the pinned snapshot's generation and delta cut: key,
  // execution and patch then agree on one frozen-statistics generation even
  // if a rebuild swap lands between them.
  QueryResult out = CachedSelect(
      cache_.get(), q, tau, kind, options, selector_.disk_mode(),
      snap.main().measure().name(),
      CacheStamp{snap.generation(), snap.delta_size()},
      [&](double clamped) {
        return snap.SelectPrepared(q, clamped, kind, options);
      },
      [&](double clamped, uint64_t cut, QueryResult* result) {
        snap.PatchDelta(q, clamped, static_cast<uint32_t>(cut), options,
                        result);
      });
  out.snapshot_version = snap.version();
  return out;
}

}  // namespace simsel::serve
