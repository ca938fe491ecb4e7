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
  // No cache touch needed: the version bump the append released already
  // invalidated every older-stamped entry (stale entries miss and are
  // erased lazily on their next lookup).
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
  // The cache epoch is the pinned snapshot's version: key and execution
  // then agree on one frozen-statistics generation even if a rebuild swap
  // lands between them.
  return CachedSelect(cache_.get(), q, tau, kind, options,
                      selector_.disk_mode(), snap.main().measure().name(),
                      snap.version(), [&](double clamped) {
                        return snap.SelectPrepared(q, clamped, kind, options);
                      });
}

}  // namespace simsel::serve
