#include "serve/sharded_selector.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace simsel::serve {

ShardedSelector ShardedSelector::Build(const std::vector<std::string>& records,
                                       const ShardedSelectorOptions& options) {
  // The outer fields set the segments and storage; a nested value would
  // be silently replaced.
  const BuildOptions defaults;
  SIMSEL_CHECK_MSG(options.build.num_segments == defaults.num_segments,
                   "set ShardedSelectorOptions::num_shards, not "
                   "build.num_segments");
  SIMSEL_CHECK_MSG(options.build.disk_mode == defaults.disk_mode,
                   "set ShardedSelectorOptions::disk_mode, not "
                   "build.disk_mode");
  SIMSEL_CHECK_MSG(options.build.pool_pages == defaults.pool_pages,
                   "set ShardedSelectorOptions::pool_pages, not "
                   "build.pool_pages");
  BuildOptions build = options.build;
  build.num_segments = options.num_shards;
  build.disk_mode = options.disk_mode;
  build.pool_pages = options.pool_pages;
  ShardedSelector sel(SimilaritySelector::Build(records, build));
  if (options.cache_bytes > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity_bytes = options.cache_bytes;
    sel.cache_ = std::make_unique<ResultCache>(cache_options);
  }
  return sel;
}

QueryResult ShardedSelector::Select(std::string_view query, double tau,
                                    AlgorithmKind kind,
                                    const SelectOptions& options) const {
  obs::TraceScope root(options.trace, "query");
  return SelectPrepared(selector_.Prepare(query, options.trace), tau, kind,
                        options);
}

QueryResult ShardedSelector::SelectPrepared(const PreparedQuery& q, double tau,
                                            AlgorithmKind kind,
                                            const SelectOptions& options) const {
  // One generation at cut 0 for good: an entry never trails, so the patch
  // never runs.
  QueryResult out = CachedSelect(
      cache_.get(), q, tau, kind, options, selector_.disk_mode(),
      measure().name(), CacheStamp{},
      [&](double clamped) {
        return selector_.SelectPrepared(q, clamped, kind, options);
      },
      [](double, uint64_t, QueryResult*) {});
  out.snapshot_version = kVersion;
  return out;
}

}  // namespace simsel::serve
