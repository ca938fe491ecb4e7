#include "core/selector.h"

#include <array>

#include "common/logging.h"
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

SimilaritySelector SimilaritySelector::Build(
    const std::vector<std::string>& records, const BuildOptions& options) {
  SimilaritySelector sel;
  sel.tokenizer_ = Tokenizer(options.tokenizer);
  sel.collection_ =
      std::make_unique<Collection>(Collection::Build(records, sel.tokenizer_));
  sel.measure_ = std::make_unique<IdfMeasure>(*sel.collection_);
  sel.segment_.end = static_cast<SetId>(sel.collection_->size());
  sel.segment_.index = std::make_unique<InvertedIndex>(
      InvertedIndex::Build(*sel.collection_, *sel.measure_, options.index));
  sel.segment_.prefilter =
      sketch::AttachPrefilter(*sel.measure_, *sel.segment_.index);
  if (options.build_sql_baseline) {
    GramTable::Tree::Options tree_options;
    tree_options.page_bytes = options.btree_page_bytes;
    sel.gram_table_ = std::make_unique<GramTable>(
        GramTable::Build(*sel.collection_, *sel.measure_, tree_options));
  }
  return sel;
}

Result<SimilaritySelector> SimilaritySelector::BuildWithSavedIndex(
    const std::vector<std::string>& records, const std::string& index_path,
    const BuildOptions& options) {
  Result<InvertedIndex> loaded = InvertedIndex::Load(index_path);
  if (!loaded.ok()) return loaded.status();
  SimilaritySelector sel;
  sel.tokenizer_ = Tokenizer(options.tokenizer);
  sel.collection_ =
      std::make_unique<Collection>(Collection::Build(records, sel.tokenizer_));
  sel.measure_ = std::make_unique<IdfMeasure>(*sel.collection_);
  sel.segment_.end = static_cast<SetId>(sel.collection_->size());
  sel.segment_.index =
      std::make_unique<InvertedIndex>(std::move(loaded).value());
  const InvertedIndex& index = *sel.segment_.index;
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
  // Every posting must name a supplied set: the kernels index per-query
  // tables by set id. Empty records add no postings, so the count check
  // cannot tell where the postings point.
  bool ids_in_range = true;
  const size_t num_sets = sel.collection_->size();
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    for (const uint32_t* ids : {index.LenIds(t), index.IdIds(t)}) {
      if (ids == nullptr) continue;
      for (size_t i = 0; i < index.ListSize(t); ++i) {
        ids_in_range &= ids[i] < num_sets;
      }
    }
  }
  if (index.total_postings() != expected ||
      index.num_tokens() != sel.collection_->dictionary().size() ||
      sketch_mismatch || !ids_in_range) {
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
  sel.segment_.prefilter = sketch::AttachPrefilter(*sel.measure_, index);
  if (options.build_sql_baseline) {
    GramTable::Tree::Options tree_options;
    tree_options.page_bytes = options.btree_page_bytes;
    sel.gram_table_ = std::make_unique<GramTable>(
        GramTable::Build(*sel.collection_, *sel.measure_, tree_options));
  }
  return sel;
}

PreparedQuery SimilaritySelector::Prepare(std::string_view query) const {
  return measure_->PrepareQuery(tokenizer_.TokenizeCounted(query));
}

QueryResult SimilaritySelector::SelectPrepared(
    const PreparedQuery& q, double tau, AlgorithmKind kind,
    const SelectOptions& options) const {
  WallTimer timer;
  // No sampling trace is attached here: phase spans cost two clock reads
  // each, and on this hot path (tens of microseconds per query, hundreds of
  // spans for the round-based algorithms) that blows the bench budget. The
  // serving layer attaches the flight recorder's sampling trace instead —
  // its queries are scatter-gather-sized, so span cost vanishes there. An
  // untraced query here still reports completion (latency, counters,
  // termination) for the slow-query log, just without spans.
  QueryResult result = Dispatch(q, tau, kind, options);
  result.trace = options.trace;
  internal::RecordQueryMetrics(kind, result,
                               static_cast<uint64_t>(timer.ElapsedMicros()),
                               options.trace);
  return result;
}

QueryResult SimilaritySelector::Dispatch(const PreparedQuery& q, double tau,
                                         AlgorithmKind kind,
                                         const SelectOptions& options) const {
  obs::TraceScope span(options.trace, AlgorithmKindName(kind));
  if (kind == AlgorithmKind::kSql) {
    if (gram_table_ == nullptr) {
      QueryResult out;
      internal::FailResult(
          Status::InvalidArgument(
              "AlgorithmKind::kSql needs a selector built with "
              "build_sql_baseline"),
          &out);
      return out;
    }
    return SqlBaselineSelect(*gram_table_, *measure_, q, tau, options);
  }
  return SelectSegment(segment_, *measure_, *collection_, q, tau, kind,
                       options);
}

QueryResult SimilaritySelector::Select(std::string_view query, double tau,
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

QueryResult SimilaritySelector::SelectTopK(std::string_view query, size_t k,
                                           const SelectOptions& options) const {
  QueryResult result = TopKSelect(*segment_.index, *measure_, Prepare(query),
                                  k, options);
  result.trace = options.trace;
  FlushQueryCounters(result.counters);
  return result;
}

IndexSizeReport SimilaritySelector::Sizes() const {
  IndexSizeReport report;
  report.base_table = collection_->BaseTableBytes();
  const InvertedIndex& index = *segment_.index;
  report.inverted_lists = index.ListBytesTotal();
  report.skip_lists = index.SkipBytes();
  report.extendible_hash = index.HashBytes();
  if (gram_table_ != nullptr) {
    report.gram_table = gram_table_->RowBytes();
    report.btree = gram_table_->BTreeBytes();
  }
  report.sketches = index.SketchBytes();
  if (prefilter() != nullptr) report.sketches += prefilter()->DerivedBytes();
  return report;
}

}  // namespace simsel
