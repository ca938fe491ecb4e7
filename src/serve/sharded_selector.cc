#include "serve/sharded_selector.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/timer.h"
#include "core/internal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace simsel::serve {

namespace {

// Per-stage serving latency attribution (the cache_lookup stage is
// recorded by CachedSelect). Handles resolve once; recording a stage is one
// histogram Observe (relaxed atomics).
struct StageMetrics {
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
    return StageMetrics{get("scatter"), get("merge")};
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
  sel.segments_.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    Segment& segment = sel.segments_[i];
    segment.begin = static_cast<SetId>(std::min(n, i * chunk));
    segment.end = static_cast<SetId>(std::min(n, (i + 1) * chunk));
    segment.index = std::make_unique<InvertedIndex>(InvertedIndex::BuildShard(
        *sel.collection_, *sel.measure_, segment.begin, segment.end,
        options.build.index));
    segment.prefilter =
        sketch::AttachPrefilter(*sel.measure_, *segment.index);
    if (options.disk_mode) {
      // Storage is strictly per segment: a store images one index's lists,
      // and pool page keys (token, page) would collide across segments.
      segment.store =
          std::make_unique<PostingStore>(PostingStore::Build(*segment.index));
      if (options.pool_pages > 0) {
        segment.pool = std::make_unique<BufferPool>(
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
  // stitched segment subtrees, but never escapes to the caller.
  const SelectOptions* run_options = &options;
  SelectOptions sampled;
  if (options.trace == nullptr) {
    if (obs::QueryTrace* t = obs::FlightRecorder::Global().ThreadTrace()) {
      sampled = options;
      sampled.trace = t;
      run_options = &sampled;
    }
  }
  return CachedSelect(
      cache_.get(), q, tau, kind, options, disk_mode_, measure_->name(),
      kVersion, run_options->trace, [&] {
        QueryResult out = Scatter(q, tau, kind, *run_options);
        internal::RecordQueryMetrics(
            kind, out, static_cast<uint64_t>(timer.ElapsedMicros()),
            run_options->trace);
        return out;
      });
}

QueryResult ShardedSelector::Scatter(const PreparedQuery& q, double tau,
                                     AlgorithmKind kind,
                                     const SelectOptions& options) const {
  const size_t num_shards = segments_.size();
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

  // Per-segment execution options: the caller's control fields propagate,
  // cancel2 is claimed for the sibling token (callers use `cancel`), and the
  // caller's storage is dropped — SelectSegment binds each segment's own.
  SelectOptions shard_base = options;
  shard_base.trace = nullptr;
  shard_base.control.cancel2 = &sibling_cancel;
  shard_base.posting_store = nullptr;
  shard_base.buffer_pool = nullptr;

  auto run = [&](size_t i) {
    WallTimer shard_timer;
    SelectOptions shard_options = shard_base;
    if (traced) shard_options.trace = &shard_traces[i];
    {
      obs::TraceScope span(shard_options.trace, AlgorithmKindName(kind));
      parts[i] = SelectSegment(segments_[i], *measure_, *collection_, q, tau,
                               kind, shard_options);
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
