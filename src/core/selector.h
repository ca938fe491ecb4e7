#ifndef SIMSEL_CORE_SELECTOR_H_
#define SIMSEL_CORE_SELECTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/segment.h"
#include "core/types.h"
#include "index/inverted_index.h"
#include "rel/gram_table.h"
#include "sim/idf.h"
#include "sketch/prefilter.h"
#include "text/tokenizer.h"

namespace simsel {

class ThreadPool;

namespace internal {
/// Process-wide metric flush every executed query goes through
/// (SimilaritySelector, DynamicSelector): per-algorithm query count and
/// latency, the query-scoped AccessCounters totals, the
/// termination/failure counters, and the flight recorder's tail-sampling
/// hook (obs/flight_recorder.h) — `trace` is whatever trace the query
/// actually executed with (the caller's, or the recorder's sampling trace;
/// null when tracing is compiled out). Call once per executed query — a
/// result served from the result cache is *not* an executed query (its work
/// totals would double-count) and is accounted by the simsel_result_cache_*
/// family instead.
void RecordQueryMetrics(AlgorithmKind kind, const QueryResult& result,
                        uint64_t latency_usec,
                        const obs::QueryTrace* trace = nullptr);
}  // namespace internal

/// Everything needed to stand up a similarity-selection service over a
/// record collection.
struct BuildOptions {
  TokenizerOptions tokenizer;
  InvertedIndexOptions index;
  /// Build the q-gram table + clustered B-tree for the SQL baseline. Off by
  /// default: it roughly triples index memory and only AlgorithmKind::kSql
  /// needs it. The baseline is one structure over the whole collection,
  /// whatever num_segments is.
  bool build_sql_baseline = false;
  /// Page size of the SQL baseline's clustered B-tree.
  size_t btree_page_bytes = 4096;
  /// Contiguous global-id ranges (clamped to [1, #records]), each with its
  /// own inverted index; a query over more than one fans out.
  size_t num_segments = 1;
  /// A PostingStore per segment instead of the in-memory arrays; the
  /// caller's SelectOptions::posting_store and buffer_pool are then ignored.
  bool disk_mode = false;
  /// Page-cache frames in disk mode, max(1, pool_pages / K) per segment.
  /// 0 = no pools.
  size_t pool_pages = 0;
};

/// Figure 5's index-size breakdown, in bytes.
struct IndexSizeReport {
  size_t base_table = 0;
  size_t gram_table = 0;        // relational rows (0 if not built)
  size_t btree = 0;             // clustered composite index (0 if not built)
  size_t inverted_lists = 0;    // both sort orders
  size_t skip_lists = 0;        // the block summaries (length seeks)
  /// Always 0: the index holds no hash. Stays only until simbench's
  /// references to it are dropped (ROADMAP item 1's benchmark-kind change).
  size_t extendible_hash = 0;
  size_t sketches = 0;          // MinHash signatures + derived prefilter
};

/// The library facade: owns the tokenizer, collection, IDF measure, the
/// inverted index of each segment and (optionally) the relational
/// baseline, and answers selection and top-k queries with any of the
/// paper's algorithms.
///
///   SimilaritySelector sel = SimilaritySelector::Build(records);
///   QueryResult r = sel.Select("main street", 0.8);
///
/// **Segments.** Statistics are global (df, idf, len(s), len(q)), and each
/// of the K segments' indexes carries global ids and lengths
/// (InvertedIndex::BuildShard), so concatenating the segments' answers in
/// order is the single-index answer byte for byte. K = 1 runs inline; with
/// K > 1 segment 0 runs inline and the rest on the thread pool (serially
/// without one). The first segment to trip or fail cancels its siblings
/// through QueryControl::cancel2, and the merge reports that root cause.
///
/// Thread-compatible after Build: const queries may run concurrently. Do
/// not run a K > 1 query from a task on the selector's own pool: the caller
/// blocks on its fan-out (the nested fan-out rule of docs/CONCURRENCY.md).
class SimilaritySelector {
 public:
  /// Tokenizes and indexes `records` (record i becomes set id i).
  static SimilaritySelector Build(const std::vector<std::string>& records,
                                  const BuildOptions& options = BuildOptions());

  /// Like Build, but loads the inverted index from `index_path` (written by
  /// SaveIndex) instead of rebuilding it. The records must be the same ones
  /// the index was built from; a postings-count mismatch is rejected as
  /// Corruption. The SQL baseline is rebuilt if requested (it has no
  /// serialized form). An image holds one index, so num_segments > 1 is
  /// InvalidArgument.
  static Result<SimilaritySelector> BuildWithSavedIndex(
      const std::vector<std::string>& records, const std::string& index_path,
      const BuildOptions& options = BuildOptions());

  /// Persists the inverted index (see InvertedIndex::Save). `version`
  /// selects the wire format; kVersionLegacy writes the uncompressed v2
  /// layout for migration tooling. InvalidArgument with K > 1 segments.
  Status SaveIndex(const std::string& index_path,
                   uint32_t version = InvertedIndex::kVersionLatest) const;

  /// Workers for the segment fan-out (borrowed; null = run segments serially
  /// on the calling thread). Not synchronized with in-flight queries: set it
  /// before serving.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Selection: every set with IDF similarity >= tau, via `kind`
  /// (default SF, the paper's overall winner).
  ///
  /// τ ≤ 0 (or any non-finite value) is clamped, identically by every
  /// algorithm, to the smallest supported threshold — see
  /// internal::ClampTau; τ > 1 is mathematically unsatisfiable for the
  /// normalized IDF measure and yields an empty result. `options.control`
  /// bounds the run (deadline / element budget / cancellation); a tripped
  /// query returns a sound partial result with QueryResult::termination set.
  /// kSql runs over the relational baseline and is InvalidArgument on a
  /// selector built without it.
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  /// Top-k most similar sets (see core/topk.h for semantics). One segment
  /// only: InvalidArgument with K > 1.
  QueryResult SelectTopK(std::string_view query, size_t k,
                         const SelectOptions& options = SelectOptions()) const;

  /// Tokenizes and prepares a query string for repeated use; records a
  /// `tokenize` span into `trace` when it is set.
  PreparedQuery Prepare(std::string_view query,
                        obs::QueryTrace* trace = nullptr) const;

  /// Runs `kind` on an already-prepared query and records the query's
  /// metrics (internal::RecordQueryMetrics) once.
  QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                             AlgorithmKind kind,
                             const SelectOptions& options) const;

  /// SelectPrepared without the metrics flush, for a front door that adds a
  /// part of its own before flushing once (DynamicSelector's delta). Sets
  /// `*run_trace` to the trace the query ran with: the caller's, the flight
  /// recorder's sampling trace when an untraced query fans out over more
  /// than one segment, or null. Pass it on to internal::RecordQueryMetrics.
  QueryResult SelectUnmetered(const PreparedQuery& q, double tau,
                              AlgorithmKind kind, const SelectOptions& options,
                              const obs::QueryTrace** run_trace) const;

  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Collection& collection() const { return *collection_; }
  const IdfMeasure& measure() const { return *measure_; }
  size_t num_segments() const { return segments_.size(); }
  const Segment& segment(size_t i) const { return segments_[i]; }
  bool disk_mode() const { return segments_[0].store != nullptr; }
  /// The one segment's index; a checked error with K > 1 (use segment(i)).
  const InvertedIndex& index() const;
  /// Null unless built with build_sql_baseline.
  const GramTable* gram_table() const { return gram_table_.get(); }
  /// The sketch prefilter tier of segment 0; null when the index carries no
  /// sketches. Every segment is built with the same sketch family (params
  /// and seeds), so segment 0's tier also sketches and screens records
  /// outside it (DynamicSelector's delta).
  const sketch::Prefilter* prefilter() const {
    return segments_[0].prefilter.get();
  }

  /// Sizes summed over every segment.
  IndexSizeReport Sizes() const;

 private:
  SimilaritySelector() = default;

  /// The global statistics: tokenizer, collection and measure.
  static SimilaritySelector WithStatistics(
      const std::vector<std::string>& records, const BuildOptions& options);
  /// Everything a segment derives from its index: the sketch tier, and in
  /// disk mode its store and pool.
  void FinishSegment(const BuildOptions& options, Segment* segment) const;
  void BuildSqlBaseline(const BuildOptions& options);

  /// The K > 1 path: every segment through SelectSegment, segment 0 inline
  /// and the rest on pool_, then one merge. `trace` replaces options.trace.
  QueryResult Scatter(const PreparedQuery& q, double tau, AlgorithmKind kind,
                      const SelectOptions& options,
                      obs::QueryTrace* trace) const;

  Tokenizer tokenizer_;
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<IdfMeasure> measure_;
  // Contiguous, ascending and covering [0, N); never empty.
  std::vector<Segment> segments_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<GramTable> gram_table_;
};

}  // namespace simsel

#endif  // SIMSEL_CORE_SELECTOR_H_
