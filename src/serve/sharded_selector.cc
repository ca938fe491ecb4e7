#include "serve/sharded_selector.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/hybrid.h"
#include "core/inra.h"
#include "core/internal.h"
#include "core/nra.h"
#include "core/prefix_filter.h"
#include "core/sf.h"
#include "core/sort_by_id.h"
#include "core/ta.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace simsel::serve {

namespace {

// Per-stage serving latency attribution. Handles resolve once; recording a
// stage is one histogram Observe (relaxed atomics).
struct StageMetrics {
  obs::Histogram* cache_lookup;
  obs::Histogram* scatter;
  obs::Histogram* merge;
};

const StageMetrics& Stages() {
  static const StageMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto get = [&reg](const char* stage) {
      return reg.GetHistogram("simsel_serve_stage_latency_usec",
                              obs::LabelPair("stage", stage));
    };
    return StageMetrics{get("cache_lookup"), get("scatter"), get("merge")};
  }();
  return m;
}

// Per-shard serving latency. Shard counts are small and fixed per process;
// handles are cached lock-free per index (shards beyond kMaxShardLabel share
// the last label so the family stays bounded).
obs::Histogram* ShardLatency(size_t shard) {
  constexpr size_t kMaxShardLabel = 64;
  static std::array<std::atomic<obs::Histogram*>, kMaxShardLabel> cache{};
  const size_t i = std::min(shard, kMaxShardLabel - 1);
  obs::Histogram* h = cache[i].load(std::memory_order_acquire);
  if (h == nullptr) {
    // Benign race: the registry returns one stable pointer per key.
    h = obs::MetricsRegistry::Global().GetHistogram(
        "simsel_shard_latency_usec",
        obs::LabelPair("shard", std::to_string(i)));
    cache[i].store(h, std::memory_order_release);
  }
  return h;
}

}  // namespace

ShardedSelector& ShardedSelector::operator=(ShardedSelector&& other) noexcept {
  tokenizer_ = std::move(other.tokenizer_);
  collection_ = std::move(other.collection_);
  measure_ = std::move(other.measure_);
  shards_ = std::move(other.shards_);
  disk_mode_ = other.disk_mode_;
  pool_ = other.pool_;
  cache_ = std::move(other.cache_);
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  return *this;
}

ShardedSelector ShardedSelector::Build(const std::vector<std::string>& records,
                                       const ShardedSelectorOptions& options) {
  ShardedSelector sel;
  // Global statistics first: one tokenizer, collection and measure over the
  // whole record set, so every shard scores with collection-wide df/idf and
  // lengths (the exactness contract in the class comment).
  sel.tokenizer_ = Tokenizer(options.build.tokenizer);
  sel.collection_ =
      std::make_unique<Collection>(Collection::Build(records, sel.tokenizer_));
  sel.measure_ = std::make_unique<IdfMeasure>(*sel.collection_);
  const size_t n = sel.collection_->size();
  const size_t num_shards =
      std::max<size_t>(1, std::min(options.num_shards, std::max<size_t>(n, 1)));
  const size_t chunk = (n + num_shards - 1) / num_shards;
  sel.disk_mode_ = options.disk_mode;
  sel.shards_.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    Shard& shard = sel.shards_[i];
    shard.begin = static_cast<SetId>(std::min(n, i * chunk));
    shard.end = static_cast<SetId>(std::min(n, (i + 1) * chunk));
    shard.index = std::make_unique<InvertedIndex>(
        InvertedIndex::BuildShard(*sel.collection_, *sel.measure_, shard.begin,
                                  shard.end, options.build.index));
    shard.prefilter = sketch::AttachPrefilter(*sel.measure_, *shard.index);
    if (options.disk_mode) {
      // Storage is strictly per shard: a store images one index's lists, and
      // pool page keys (token, page) would collide across shards.
      shard.store =
          std::make_unique<PostingStore>(PostingStore::Build(*shard.index));
      if (options.pool_pages > 0) {
        shard.pool = std::make_unique<BufferPool>(
            std::max<size_t>(1, options.pool_pages / num_shards));
      }
    }
  }
  if (options.cache_bytes > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity_bytes = options.cache_bytes;
    sel.cache_ = std::make_unique<ResultCache>(cache_options);
  }
  return sel;
}

PreparedQuery ShardedSelector::Prepare(std::string_view query) const {
  return measure_->PrepareQuery(tokenizer_.TokenizeCounted(query));
}

QueryResult ShardedSelector::Select(std::string_view query, double tau,
                                    AlgorithmKind kind,
                                    const SelectOptions& options) const {
  obs::TraceScope root(options.trace, "query");
  PreparedQuery q;
  {
    obs::TraceScope span(options.trace, "tokenize");
    q = Prepare(query);
    span.SetItems(q.tokens.size());
  }
  return SelectPrepared(q, tau, kind, options);
}

QueryResult ShardedSelector::SelectPrepared(const PreparedQuery& q, double tau,
                                            AlgorithmKind kind,
                                            const SelectOptions& options) const {
  WallTimer timer;
  tau = internal::ClampTau(tau);
  if (kind == AlgorithmKind::kSql) {
    QueryResult out;
    internal::FailResult(
        Status::InvalidArgument(
            "AlgorithmKind::kSql has no sharded form (the clustered B-tree "
            "is a monolithic structure); query it through "
            "SimilaritySelector"),
        &out);
    out.trace = options.trace;
    return out;
  }

  // Tail sampling for untraced queries, as in SimilaritySelector: the
  // flight recorder's thread-local trace records the serving stages and the
  // stitched shard subtrees, but never escapes to the caller.
  const SelectOptions* run_options = &options;
  SelectOptions sampled;
  if (options.trace == nullptr) {
    if (obs::QueryTrace* t = obs::FlightRecorder::Global().ThreadTrace()) {
      sampled = options;
      sampled.trace = t;
      run_options = &sampled;
    }
  }

  std::string key;
  uint64_t at_epoch = 0;
  if (cache_ != nullptr) {
    WallTimer stage_timer;
    obs::TraceScope span(run_options->trace, "cache_lookup");
    key = ResultCache::MakeKey(q, tau, kind, options, disk_mode_,
                               measure_->name());
    // Read the epoch before executing: a bump landing mid-query then keeps
    // the stale-stamped insert invisible to post-bump lookups.
    at_epoch = epoch();
    CachedResult cached;
    const bool hit = cache_->Lookup(key, at_epoch, &cached);
    Stages().cache_lookup->Observe(
        static_cast<uint64_t>(stage_timer.ElapsedMicros()));
    if (hit) {
      QueryResult out;
      out.matches = std::move(cached.matches);
      out.counters = cached.counters;
      out.trace = options.trace;
      return out;
    }
  }

  QueryResult out = Scatter(q, tau, kind, *run_options);
  if (cache_ != nullptr && out.complete()) {
    cache_->Insert(key, at_epoch, out.matches, out.counters);
  }
  out.trace = options.trace;
  internal::RecordQueryMetrics(kind, out,
                               static_cast<uint64_t>(timer.ElapsedMicros()),
                               run_options->trace);
  return out;
}

QueryResult ShardedSelector::RunShard(const Shard& shard,
                                      const PreparedQuery& q, double tau,
                                      AlgorithmKind kind,
                                      const SelectOptions& options) const {
  if (options.prefilter && shard.prefilter != nullptr &&
      sketch::PrefilterEligible(kind)) {
    QueryResult out;
    if (shard.prefilter->TrySelect(q, tau, options, &out)) return out;
  }
  switch (kind) {
    case AlgorithmKind::kLinearScan: {
      // Range scan of the global collection over this shard's ids (the
      // ParallelLinearScanSelect shard body, rebased onto [begin, end)).
      QueryResult out;
      internal::ControlPoller poller(options.control, out.counters);
      for (SetId s = shard.begin; s < shard.end; ++s) {
        if (((s - shard.begin) & 1023u) == 0 && poller.ShouldStop()) {
          out.termination = poller.termination();
          break;
        }
        ++out.counters.rows_scanned;
        double score = measure_->Score(q, s);
        if (score >= tau) out.matches.push_back(Match{s, score});
      }
      return out;
    }
    case AlgorithmKind::kSql:
      break;  // rejected in SelectPrepared
    case AlgorithmKind::kSortById:
      return SortByIdSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kTa:
      return internal::TaEngineSelect(*shard.index, *measure_, q, tau, options,
                                      /*improved=*/false);
    case AlgorithmKind::kNra:
      return NraSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kIta:
      return ItaSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kInra:
      return InraSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kSf:
      return SfSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kHybrid:
      return HybridSelect(*shard.index, *measure_, q, tau, options);
    case AlgorithmKind::kPrefixFilter:
      return PrefixFilterSelect(*shard.index, *measure_, q, tau, options);
  }
  SIMSEL_CHECK_MSG(false, "unreachable algorithm kind in RunShard");
  return QueryResult{};
}

QueryResult ShardedSelector::Scatter(const PreparedQuery& q, double tau,
                                     AlgorithmKind kind,
                                     const SelectOptions& options) const {
  const size_t num_shards = shards_.size();
  std::vector<QueryResult> parts(num_shards);
  // First trip cancels siblings: whoever trips (or fails) first records the
  // root cause and raises the shared token; every other shard stops at its
  // next control poll with an induced kCancelled that the merge does NOT
  // report — the root cause is the query's verdict.
  std::atomic<bool> sibling_cancel{false};
  constexpr uint32_t kNoTrip = ~0u;
  std::atomic<uint32_t> first_trip{kNoTrip};

  // Cross-thread tracing: each shard records into its own private child
  // trace (no locks, no sharing while workers run) and the gather step
  // below stitches them under the scatter span in shard order, so the
  // stitched tree's shape is deterministic no matter how the shard tasks
  // interleaved.
  const bool traced = options.trace != nullptr;
  std::vector<obs::QueryTrace> shard_traces(traced ? num_shards : 0);

  // Per-shard execution options: the caller's control fields propagate, and
  // cancel2 is claimed for the sibling token (callers use `cancel`).
  SelectOptions shard_base = options;
  shard_base.trace = nullptr;
  shard_base.control.cancel2 = &sibling_cancel;

  auto run = [&](size_t i) {
    WallTimer shard_timer;
    const Shard& shard = shards_[i];
    SelectOptions shard_options = shard_base;
    if (traced) shard_options.trace = &shard_traces[i];
    shard_options.posting_store = shard.store.get();
    shard_options.buffer_pool = shard.pool.get();
    {
      obs::TraceScope span(shard_options.trace, AlgorithmKindName(kind));
      parts[i] = RunShard(shard, q, tau, kind, shard_options);
      span.SetItems(parts[i].matches.size());
    }
    ShardLatency(i)->Observe(static_cast<uint64_t>(shard_timer.ElapsedMicros()));
    if (parts[i].termination != Termination::kCompleted ||
        !parts[i].status.ok()) {
      uint32_t expected = kNoTrip;
      first_trip.compare_exchange_strong(
          expected, static_cast<uint32_t>(parts[i].termination),
          std::memory_order_acq_rel);
      sibling_cancel.store(true, std::memory_order_release);
    }
  };

  {
    WallTimer stage_timer;
    obs::TraceScope span(options.trace, "scatter");
    span.SetItems(num_shards);
    if (pool_ == nullptr || num_shards == 1) {
      for (size_t i = 0; i < num_shards; ++i) run(i);
    } else {
      // Private join latch instead of ThreadPool::Wait (which waits for the
      // whole pool — other queries' tasks included). Shard 0 runs inline on
      // the calling thread, so even a single-threaded pool makes progress.
      std::mutex mu;
      std::condition_variable done;
      size_t remaining = num_shards - 1;
      for (size_t i = 1; i < num_shards; ++i) {
        pool_->Submit([&run, &mu, &done, &remaining, i] {
          run(i);
          std::lock_guard<std::mutex> lock(mu);
          if (--remaining == 0) done.notify_one();
        });
      }
      run(0);
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [&remaining] { return remaining == 0; });
    }
    // Gather-side stitch: workers are joined, their traces are quiescent.
    if (traced) {
      for (size_t i = 0; i < num_shards; ++i) {
        options.trace->AdoptChild("shard", static_cast<uint32_t>(i),
                                  shard_traces[i], parts[i].matches.size());
      }
    }
    Stages().scatter->Observe(static_cast<uint64_t>(stage_timer.ElapsedMicros()));
  }

  WallTimer merge_timer;
  obs::TraceScope span(options.trace, "merge");
  QueryResult out;
  Status status;
  for (size_t i = 0; i < num_shards; ++i) {
    out.counters.Merge(parts[i].counters);
    // Shard id ranges are contiguous and ascending and each part is sorted
    // by id, so concatenation in shard order IS the canonical order.
    out.matches.insert(out.matches.end(), parts[i].matches.begin(),
                       parts[i].matches.end());
    if (status.ok() && !parts[i].status.ok()) status = parts[i].status;
  }
  const uint32_t trip = first_trip.load(std::memory_order_acquire);
  if (trip != kNoTrip) out.termination = static_cast<Termination>(trip);
  out.counters.results = out.matches.size();
  span.SetItems(out.matches.size());
  if (!status.ok()) internal::FailResult(std::move(status), &out);
  Stages().merge->Observe(static_cast<uint64_t>(merge_timer.ElapsedMicros()));
  return out;
}

}  // namespace simsel::serve
