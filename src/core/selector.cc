#include "core/selector.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/internal.h"
#include "core/sql_baseline.h"
#include "core/topk.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace simsel {

namespace {

// Registry handles resolved once per process; after that the per-query cost
// is a dozen relaxed atomic adds.
struct PerAlgoMetrics {
  obs::Counter* queries;
  obs::Histogram* latency_usec;
};

const PerAlgoMetrics& AlgoMetrics(AlgorithmKind kind) {
  static const auto* table = [] {
    constexpr size_t kKinds =
        static_cast<size_t>(AlgorithmKind::kPrefixFilter) + 1;
    auto* t = new std::array<PerAlgoMetrics, kKinds>();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    for (size_t i = 0; i < kKinds; ++i) {
      std::string label = obs::LabelPair(
          "algo", AlgorithmKindName(static_cast<AlgorithmKind>(i)));
      (*t)[i].queries = reg.GetCounter("simsel_queries_total", label);
      (*t)[i].latency_usec =
          reg.GetHistogram("simsel_query_latency_usec", label);
    }
    return t;
  }();
  return (*table)[static_cast<size_t>(kind)];
}

// Per-query access accounting pooled into the process-wide registry. The
// posting read/skip totals are flushed by ListCursor itself (they also
// accrue outside full queries); everything here is query-scoped.
void FlushQueryCounters(const AccessCounters& c) {
  struct Handles {
    obs::Counter* seq_pages;
    obs::Counter* rand_pages;
    obs::Counter* hash_probes;
    obs::Counter* cand_inserts;
    obs::Counter* cand_prunes;
    obs::Counter* cand_scan_steps;
    obs::Counter* rows_scanned;
    obs::Counter* results;
  };
  static const Handles h = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return Handles{reg.GetCounter("simsel_page_reads_seq_total"),
                   reg.GetCounter("simsel_page_reads_rand_total"),
                   reg.GetCounter("simsel_hash_probes_total"),
                   reg.GetCounter("simsel_candidates_inserted_total"),
                   reg.GetCounter("simsel_candidates_pruned_total"),
                   reg.GetCounter("simsel_candidate_scan_steps_total"),
                   reg.GetCounter("simsel_rows_scanned_total"),
                   reg.GetCounter("simsel_results_total")};
  }();
  if (c.seq_page_reads) h.seq_pages->Increment(c.seq_page_reads);
  if (c.rand_page_reads) h.rand_pages->Increment(c.rand_page_reads);
  if (c.hash_probes) h.hash_probes->Increment(c.hash_probes);
  if (c.candidate_inserts) h.cand_inserts->Increment(c.candidate_inserts);
  if (c.candidate_prunes) h.cand_prunes->Increment(c.candidate_prunes);
  if (c.candidate_scan_steps) {
    h.cand_scan_steps->Increment(c.candidate_scan_steps);
  }
  if (c.rows_scanned) h.rows_scanned->Increment(c.rows_scanned);
  if (c.results) h.results->Increment(c.results);
}

// Per-stage fan-out latency attribution. Handles resolve once; recording a
// stage is one histogram Observe (relaxed atomics).
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

// Per-segment fan-out latency. Segment counts are small and fixed per
// process; handles are cached lock-free per index (segments beyond
// kMaxShardLabel share the last label so the family stays bounded).
obs::Histogram* ShardLatency(size_t segment) {
  constexpr size_t kMaxShardLabel = 64;
  static std::array<std::atomic<obs::Histogram*>, kMaxShardLabel> cache{};
  const size_t i = std::min(segment, kMaxShardLabel - 1);
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

QueryResult SqlUnavailable() {
  QueryResult out;
  internal::FailResult(
      Status::InvalidArgument(
          "AlgorithmKind::kSql needs a selector built with build_sql_baseline"),
      &out);
  return out;
}

}  // namespace

namespace internal {

void RecordQueryMetrics(AlgorithmKind kind, const QueryResult& result,
                        uint64_t latency_usec, const obs::QueryTrace* trace) {
  const PerAlgoMetrics& m = AlgoMetrics(kind);
  m.queries->Increment();
  m.latency_usec->Observe(latency_usec);
  FlushQueryCounters(result.counters);
  if (result.termination != Termination::kCompleted) {
    // One counter per trip reason; resolved lazily (tripped queries are the
    // exception, completed ones pay nothing here).
    obs::MetricsRegistry::Global()
        .GetCounter("simsel_query_terminations_total",
                    obs::LabelPair("reason",
                                   TerminationName(result.termination)))
        ->Increment();
  }
  if (!result.status.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("simsel_query_failures_total")
        ->Increment();
  }
  // Tail sampling: slow/tripped/failed queries keep their full span tree in
  // the slow-query log, healthy ones feed the per-thread flight ring.
  obs::QueryCompletion completion;
  completion.algo = AlgorithmKindName(kind);
  completion.latency_usec = latency_usec;
  completion.termination = TerminationName(result.termination);
  completion.tripped = result.termination != Termination::kCompleted;
  completion.failed = !result.status.ok();
  if (completion.failed) completion.status_message = result.status.ToString();
  completion.counters = &result.counters;
  completion.trace = trace;
  obs::FlightRecorder::Global().OnQueryComplete(completion);
}

}  // namespace internal

SimilaritySelector SimilaritySelector::WithStatistics(
    const std::vector<std::string>& records, const BuildOptions& options) {
  SimilaritySelector sel;
  sel.tokenizer_ = Tokenizer(options.tokenizer);
  sel.collection_ =
      std::make_unique<Collection>(Collection::Build(records, sel.tokenizer_));
  sel.measure_ = std::make_unique<IdfMeasure>(*sel.collection_);
  return sel;
}

void SimilaritySelector::FinishSegment(const BuildOptions& options,
                                       Segment* segment) const {
  segment->prefilter = sketch::AttachPrefilter(*measure_, *segment->index);
  if (options.disk_mode) {
    // Storage is strictly per segment: a store images one index's lists,
    // and pool page keys (token, page) would collide across segments.
    segment->store =
        std::make_unique<PostingStore>(PostingStore::Build(*segment->index));
    if (options.pool_pages > 0) {
      segment->pool = std::make_unique<BufferPool>(
          std::max<size_t>(1, options.pool_pages / segments_.size()));
    }
  }
}

void SimilaritySelector::BuildSqlBaseline(const BuildOptions& options) {
  if (!options.build_sql_baseline) return;
  GramTable::Tree::Options tree_options;
  tree_options.page_bytes = options.btree_page_bytes;
  gram_table_ = std::make_unique<GramTable>(
      GramTable::Build(*collection_, *measure_, tree_options));
}

SimilaritySelector SimilaritySelector::Build(
    const std::vector<std::string>& records, const BuildOptions& options) {
  SimilaritySelector sel = WithStatistics(records, options);
  const size_t n = sel.collection_->size();
  const size_t k =
      std::max<size_t>(1, std::min(options.num_segments, std::max<size_t>(n, 1)));
  const size_t chunk = (n + k - 1) / k;
  sel.segments_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    Segment& segment = sel.segments_[i];
    segment.begin = static_cast<SetId>(std::min(n, i * chunk));
    segment.end = static_cast<SetId>(std::min(n, (i + 1) * chunk));
    segment.index = std::make_unique<InvertedIndex>(InvertedIndex::BuildShard(
        *sel.collection_, *sel.measure_, segment.begin, segment.end,
        options.index));
    sel.FinishSegment(options, &segment);
  }
  sel.BuildSqlBaseline(options);
  return sel;
}

Result<SimilaritySelector> SimilaritySelector::BuildWithSavedIndex(
    const std::vector<std::string>& records, const std::string& index_path,
    const BuildOptions& options) {
  if (options.num_segments > 1) {
    return Status::InvalidArgument(
        "a saved index image holds one segment; build with num_segments = 1");
  }
  Result<InvertedIndex> loaded = InvertedIndex::Load(index_path);
  if (!loaded.ok()) return loaded.status();
  SimilaritySelector sel = WithStatistics(records, options);
  sel.segments_.resize(1);
  Segment& segment = sel.segments_[0];
  segment.end = static_cast<SetId>(sel.collection_->size());
  segment.index = std::make_unique<InvertedIndex>(std::move(loaded).value());
  const InvertedIndex& index = *segment.index;
  uint64_t expected = 0;
  for (SetId s = 0; s < sel.collection_->size(); ++s) {
    expected += sel.collection_->set(s).tokens.size();
  }
  // The sketch rows must cover exactly the supplied sets: the prefilter
  // reads one collection set per row, so a wider section would read past
  // the collection (postings and tokens alone cannot tell — empty records
  // add neither).
  const bool sketch_mismatch =
      index.has_sketches() &&
      (index.sketch_begin() != 0 ||
       index.sketch_num_sets() != sel.collection_->size());
  // Every posting must name a supplied set, with that set's length: the
  // kernels index per-query tables by set id, and seek and score by the
  // stored lengths (a NaN length stalls a cursor). Empty records add no
  // postings, so the count check cannot tell where the postings point.
  bool postings_match = true;
  const size_t num_sets = sel.collection_->size();
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    const uint32_t* ids = index.LenIds(t);
    const float* lens = index.LenLens(t);
    for (size_t i = 0; i < index.ListSize(t); ++i) {
      postings_match &= ids[i] < num_sets &&
                        lens[i] == sel.measure_->set_length(ids[i]);
    }
  }
  // Validate() last: it checks the list orders and hashes the kernels rely
  // on, which a hostile image with a recomputed checksum can break.
  if (index.total_postings() != expected ||
      index.num_tokens() != sel.collection_->dictionary().size() ||
      sketch_mismatch || !postings_match || !index.Validate()) {
    SIMSEL_LOG(kWarn) << "index at " << index_path
                      << " does not match the supplied records ("
                      << index.total_postings() << " postings, expected "
                      << expected << ")";
    return Status::Corruption(
        "index at " + index_path + " does not match the supplied records");
  }
  SIMSEL_LOG(kInfo) << "loaded index from " << index_path << " ("
                    << index.num_tokens() << " lists, "
                    << index.total_postings() << " postings)";
  // The banding tables and partition router are derived structures (like
  // block summaries), deterministically recomputed from the persisted
  // signatures + collection statistics.
  sel.FinishSegment(options, &segment);
  sel.BuildSqlBaseline(options);
  return sel;
}

Status SimilaritySelector::SaveIndex(const std::string& index_path,
                                     uint32_t version) const {
  if (segments_.size() > 1) {
    return Status::InvalidArgument("an index image holds one segment");
  }
  return segments_[0].index->Save(index_path, version);
}

const InvertedIndex& SimilaritySelector::index() const {
  SIMSEL_CHECK_MSG(segments_.size() == 1,
                   "index() needs one segment; use segment(i).index");
  return *segments_[0].index;
}

PreparedQuery SimilaritySelector::Prepare(std::string_view query,
                                          obs::QueryTrace* trace) const {
  obs::TraceScope span(trace, "tokenize");
  PreparedQuery q = measure_->PrepareQuery(tokenizer_.TokenizeCounted(query));
  span.SetItems(q.tokens.size());
  return q;
}

QueryResult SimilaritySelector::SelectPrepared(
    const PreparedQuery& q, double tau, AlgorithmKind kind,
    const SelectOptions& options) const {
  WallTimer timer;
  const obs::QueryTrace* run_trace = nullptr;
  QueryResult result = SelectUnmetered(q, tau, kind, options, &run_trace);
  internal::RecordQueryMetrics(kind, result,
                               static_cast<uint64_t>(timer.ElapsedMicros()),
                               run_trace);
  return result;
}

QueryResult SimilaritySelector::SelectUnmetered(
    const PreparedQuery& q, double tau, AlgorithmKind kind,
    const SelectOptions& options, const obs::QueryTrace** run_trace) const {
  if (kind != AlgorithmKind::kSql && segments_.size() > 1) {
    // A fan-out is scatter-gather-sized, so span cost vanishes: an
    // untraced query records into the flight recorder's thread-local
    // sampling trace, which never escapes to the caller.
    obs::QueryTrace* trace = options.trace;
    if (trace == nullptr) trace = obs::FlightRecorder::Global().ThreadTrace();
    *run_trace = trace;
    QueryResult result = Scatter(q, tau, kind, options, trace);
    result.trace = options.trace;
    return result;
  }
  // One structure answers: no fan-out and no sampling trace, whose spans
  // (two clock reads each, hundreds per round-based query of tens of
  // microseconds) would blow the bench budget. The completion is still
  // reported, without spans.
  *run_trace = options.trace;
  obs::TraceScope span(options.trace, AlgorithmKindName(kind));
  QueryResult result =
      kind != AlgorithmKind::kSql
          ? SelectSegment(segments_[0], *measure_, *collection_, q, tau, kind,
                          options)
      : gram_table_ != nullptr
          ? SqlBaselineSelect(*gram_table_, *measure_, q, tau, options)
          : SqlUnavailable();
  result.trace = options.trace;
  return result;
}

QueryResult SimilaritySelector::Scatter(const PreparedQuery& q, double tau,
                                        AlgorithmKind kind,
                                        const SelectOptions& options,
                                        obs::QueryTrace* trace) const {
  const size_t num_segments = segments_.size();
  std::vector<QueryResult> parts(num_segments);
  // First trip cancels siblings: whoever trips (or fails) first records the
  // root cause and raises the shared token; every other segment stops at
  // its next control poll with an induced kCancelled that the merge does
  // NOT report — the root cause is the query's verdict.
  std::atomic<bool> sibling_cancel{false};
  constexpr uint32_t kNoTrip = ~0u;
  std::atomic<uint32_t> first_trip{kNoTrip};

  // Cross-thread tracing: each segment records into its own private child
  // trace (no locks, no sharing while workers run) and the gather step
  // below stitches them under the scatter span in segment order, so the
  // stitched tree's shape is deterministic no matter how the tasks
  // interleaved.
  const bool traced = trace != nullptr;
  std::vector<obs::QueryTrace> segment_traces(traced ? num_segments : 0);

  // Per-segment execution options: the caller's control fields propagate,
  // cancel2 is claimed for the sibling token (callers use `cancel`), and the
  // caller's storage is dropped — a caller store images a whole-collection
  // index, and SelectSegment binds a disk segment's own.
  SelectOptions segment_base = options;
  segment_base.trace = nullptr;
  segment_base.control.cancel2 = &sibling_cancel;
  segment_base.posting_store = nullptr;
  segment_base.buffer_pool = nullptr;

  auto run = [&](size_t i) {
    WallTimer segment_timer;
    SelectOptions segment_options = segment_base;
    if (traced) segment_options.trace = &segment_traces[i];
    {
      obs::TraceScope span(segment_options.trace, AlgorithmKindName(kind));
      parts[i] = SelectSegment(segments_[i], *measure_, *collection_, q, tau,
                               kind, segment_options);
      span.SetItems(parts[i].matches.size());
    }
    ShardLatency(i)->Observe(
        static_cast<uint64_t>(segment_timer.ElapsedMicros()));
    if (!parts[i].complete()) {
      uint32_t expected = kNoTrip;
      first_trip.compare_exchange_strong(
          expected, static_cast<uint32_t>(parts[i].termination),
          std::memory_order_acq_rel);
      sibling_cancel.store(true, std::memory_order_release);
    }
  };

  {
    WallTimer stage_timer;
    obs::TraceScope span(trace, "scatter");
    span.SetItems(num_segments);
    if (pool_ == nullptr) {
      for (size_t i = 0; i < num_segments; ++i) run(i);
    } else {
      // Private join latch instead of ThreadPool::Wait (which waits for the
      // whole pool — other queries' tasks included). Segment 0 runs inline
      // on the calling thread, so even a single-threaded pool, or one whose
      // workers are busy with a rebuild, makes progress.
      std::mutex mu;
      std::condition_variable done;
      size_t remaining = num_segments - 1;
      for (size_t i = 1; i < num_segments; ++i) {
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
      for (size_t i = 0; i < num_segments; ++i) {
        trace->AdoptChild("shard", static_cast<uint32_t>(i),
                          segment_traces[i], parts[i].matches.size());
      }
    }
    Stages().scatter->Observe(
        static_cast<uint64_t>(stage_timer.ElapsedMicros()));
  }

  WallTimer merge_timer;
  obs::TraceScope span(trace, "merge");
  QueryResult out;
  Status status;
  for (size_t i = 0; i < num_segments; ++i) {
    out.counters.Merge(parts[i].counters);
    // Segment id ranges are contiguous and ascending and each part is
    // sorted by id, so concatenation in segment order IS the canonical
    // order.
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

QueryResult SimilaritySelector::Select(std::string_view query, double tau,
                                       AlgorithmKind kind,
                                       const SelectOptions& options) const {
  obs::TraceScope root(options.trace, "query");
  return SelectPrepared(Prepare(query, options.trace), tau, kind, options);
}

QueryResult SimilaritySelector::SelectTopK(std::string_view query, size_t k,
                                           const SelectOptions& options) const {
  QueryResult result;
  if (segments_.size() > 1) {
    internal::FailResult(Status::InvalidArgument("top-k needs one segment"),
                         &result);
  } else {
    result = TopKSelect(*segments_[0].index, *measure_, Prepare(query), k,
                        options);
  }
  result.trace = options.trace;
  FlushQueryCounters(result.counters);
  return result;
}

IndexSizeReport SimilaritySelector::Sizes() const {
  IndexSizeReport report;
  report.base_table = collection_->BaseTableBytes();
  for (const Segment& segment : segments_) {
    const InvertedIndex& index = *segment.index;
    report.inverted_lists += index.ListBytesTotal();
    report.skip_lists += index.SkipBytes();
    report.extendible_hash += index.HashBytes();
    report.sketches += index.SketchBytes();
    if (segment.prefilter != nullptr) {
      report.sketches += segment.prefilter->DerivedBytes();
    }
  }
  if (gram_table_ != nullptr) {
    report.gram_table = gram_table_->RowBytes();
    report.btree = gram_table_->BTreeBytes();
  }
  return report;
}

}  // namespace simsel
