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

namespace internal {
/// Process-wide metric flush every served query goes through, shared by the
/// SimilaritySelector facade and the serving layer (serve/): per-algorithm
/// query count and latency, the query-scoped AccessCounters totals, the
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
  /// needs it.
  bool build_sql_baseline = false;
  /// Page size of the SQL baseline's clustered B-tree.
  size_t btree_page_bytes = 4096;
};

/// Figure 5's index-size breakdown, in bytes.
struct IndexSizeReport {
  size_t base_table = 0;
  size_t gram_table = 0;        // relational rows (0 if not built)
  size_t btree = 0;             // clustered composite index (0 if not built)
  size_t inverted_lists = 0;    // both sort orders
  size_t skip_lists = 0;        // the block summaries (length seeks)
  size_t extendible_hash = 0;
  size_t sketches = 0;          // MinHash signatures + derived prefilter
};

/// The library facade: owns the tokenizer, collection, IDF measure, inverted
/// index and (optionally) the relational baseline, and answers selection and
/// top-k queries with any of the paper's algorithms.
///
///   SimilaritySelector sel = SimilaritySelector::Build(records);
///   QueryResult r = sel.Select("main street", 0.8);
///
/// Thread-compatible after Build: const queries may run concurrently.
class SimilaritySelector {
 public:
  /// Tokenizes and indexes `records` (record i becomes set id i).
  static SimilaritySelector Build(const std::vector<std::string>& records,
                                  const BuildOptions& options = BuildOptions());

  /// Like Build, but loads the inverted index from `index_path` (written by
  /// SaveIndex) instead of rebuilding it. The records must be the same ones
  /// the index was built from; a postings-count mismatch is rejected as
  /// Corruption. The SQL baseline is rebuilt if requested (it has no
  /// serialized form).
  static Result<SimilaritySelector> BuildWithSavedIndex(
      const std::vector<std::string>& records, const std::string& index_path,
      const BuildOptions& options = BuildOptions());

  /// Persists the inverted index (see InvertedIndex::Save). `version`
  /// selects the wire format; kVersionLegacy writes the uncompressed v2
  /// layout for migration tooling.
  Status SaveIndex(const std::string& index_path,
                   uint32_t version = InvertedIndex::kVersionLatest) const {
    return segment_.index->Save(index_path, version);
  }

  /// Selection: every set with IDF similarity >= tau, via `kind`
  /// (default SF, the paper's overall winner).
  ///
  /// τ ≤ 0 (or any non-finite value) is clamped, identically by every
  /// algorithm, to the smallest supported threshold — see
  /// internal::ClampTau; τ > 1 is mathematically unsatisfiable for the
  /// normalized IDF measure and yields an empty result. `options.control`
  /// bounds the run (deadline / element budget / cancellation); a tripped
  /// query returns a sound partial result with QueryResult::termination set.
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  /// Top-k most similar sets (see core/topk.h for semantics).
  QueryResult SelectTopK(std::string_view query, size_t k,
                         const SelectOptions& options = SelectOptions()) const;

  /// Tokenizes and prepares a query string for repeated use.
  PreparedQuery Prepare(std::string_view query) const;

  /// Runs `kind` on an already-prepared query.
  QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                             AlgorithmKind kind,
                             const SelectOptions& options) const;

  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Collection& collection() const { return *collection_; }
  const IdfMeasure& measure() const { return *measure_; }
  const InvertedIndex& index() const { return *segment_.index; }
  /// Null unless built with build_sql_baseline.
  const GramTable* gram_table() const { return gram_table_.get(); }
  /// The sketch prefilter tier; null when the index carries no sketches.
  const sketch::Prefilter* prefilter() const {
    return segment_.prefilter.get();
  }

  IndexSizeReport Sizes() const;

 private:
  SimilaritySelector() = default;

  // A dynamic snapshot runs Dispatch for its main part and flushes the
  // metrics once for main and delta; in disk mode it gives segment_ a store.
  friend class DynamicSelector;

  /// kSql over the relational baseline, every other kind through
  /// SelectSegment; wrapped by SelectPrepared's timing/metrics. kSql on a
  /// selector built without the baseline fails with InvalidArgument.
  QueryResult Dispatch(const PreparedQuery& q, double tau, AlgorithmKind kind,
                       const SelectOptions& options) const;

  Tokenizer tokenizer_;
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<IdfMeasure> measure_;
  // [0, N). No store of its own (disk mode comes from the caller's
  // SelectOptions::posting_store) unless it is a disk-mode DynamicSelector's
  // main segment, whose store SelectSegment binds.
  Segment segment_;
  std::unique_ptr<GramTable> gram_table_;
};

}  // namespace simsel

#endif  // SIMSEL_CORE_SELECTOR_H_
