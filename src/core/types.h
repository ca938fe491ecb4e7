#ifndef SIMSEL_CORE_TYPES_H_
#define SIMSEL_CORE_TYPES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "index/collection.h"

namespace simsel {

namespace obs {
class QueryTrace;
}  // namespace obs

class BufferPool;
class PostingStore;

/// One reported set: its id and exact IDF similarity (>= the threshold).
struct Match {
  SetId id;
  double score;
};

/// How a query run ended. Anything other than kCompleted means the result is
/// a *partial*: every reported match is a true match with its exact
/// canonical score (a sound subset of the complete answer), but further
/// matches may have been cut off by the tripped limit.
enum class Termination : uint8_t {
  kCompleted = 0,  ///< ran to the end; the result is the complete answer
  kDeadline,       ///< QueryControl::deadline passed mid-query
  kBudget,         ///< QueryControl::max_elements_read exceeded
  kCancelled,      ///< QueryControl::cancel token observed true
};

inline const char* TerminationName(Termination t) {
  switch (t) {
    case Termination::kCompleted:
      return "completed";
    case Termination::kDeadline:
      return "deadline";
    case Termination::kBudget:
      return "budget";
    case Termination::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// Per-query execution limits. All limits are optional and compose; the
/// algorithms poll them once per posting span / candidate-scan batch (off
/// the per-posting hot path), so a tripped control stops the query within
/// one block of extra work and returns a valid partial QueryResult with
/// `termination` set. The default-constructed control never trips.
struct QueryControl {
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// Absolute wall-clock deadline on the monotonic clock. Absolute rather
  /// than a duration so one value bounds a whole retry/batch pipeline:
  /// queries dispatched later in a batch inherit the remaining time.
  Clock::time_point deadline = kNoDeadline;
  /// Budget on work done: elements_read + rows_scanned (postings decoded
  /// plus base-table/B-tree rows fetched, the dominant per-algorithm work
  /// unit). 0 means unlimited. The budget is a trip wire, not a hard cap:
  /// the query stops at the first poll after crossing it, so overshoot is
  /// bounded by one posting span / scan batch.
  uint64_t max_elements_read = 0;
  /// Caller-owned cancellation token (borrowed; may be shared by any number
  /// of concurrent queries). Set it to true from any thread and every query
  /// polling it stops at its next poll with kCancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Secondary cancellation token, polled exactly like `cancel`. Exists so a
  /// layer that fans one query out (the serving layer's scatter-gather) can
  /// combine the caller's token with its own sibling-cancel token without
  /// wrapping or copying atomics; either token tripping cancels the query.
  const std::atomic<bool>* cancel2 = nullptr;

  bool has_deadline() const { return deadline != kNoDeadline; }
  /// True when any limit is set (the poller short-circuits otherwise).
  bool active() const {
    return has_deadline() || max_elements_read > 0 || cancel != nullptr ||
           cancel2 != nullptr;
  }
  /// Convenience: a deadline `ms` milliseconds from now.
  static Clock::time_point DeadlineAfterMillis(int64_t ms) {
    return Clock::now() + std::chrono::milliseconds(ms);
  }
};

/// Output of one selection query: matches sorted by ascending id, plus the
/// access accounting the benchmarks aggregate.
struct QueryResult {
  std::vector<Match> matches;
  AccessCounters counters;
  /// How the run ended. Anything but kCompleted marks a partial result (see
  /// Termination); counters always reflect the work actually performed.
  Termination termination = Termination::kCompleted;
  /// Non-OK when a storage read failed mid-query (see FaultInjector).
  /// `matches` is then cleared — a failed read means the result can no
  /// longer be trusted — and callers (BatchSelect) retry transient codes.
  Status status;
  /// The per-phase trace this query was run with (== SelectOptions::trace),
  /// filled by the time the result is returned; null when tracing was off.
  const obs::QueryTrace* trace = nullptr;
  /// The version of the collection this answer was computed against: a
  /// DynamicSelector snapshot's version() (the result is byte-identical to
  /// a serial query against the collection frozen at exactly this version,
  /// whether it ran, hit the serving cache or was patched forward from an
  /// older cached cut), the constant serve::ShardedSelector::kVersion from
  /// that cache-fronted selector, 0 from a plain SimilaritySelector of any
  /// segment count.
  uint64_t snapshot_version = 0;

  /// True when this is the full, trustworthy answer.
  bool complete() const {
    return termination == Termination::kCompleted && status.ok();
  }
};

/// Feature toggles of the selection algorithms. Defaults enable everything
/// (the paper's configuration); the Figure 8/9 ablations switch individual
/// properties off. Algorithms ignore toggles that do not apply to them
/// (e.g. classic NRA never length-bounds regardless of the flag).
struct SelectOptions {
  /// Theorem 1: restrict every list to lengths in [τ·len(q), len(q)/τ].
  bool length_bounding = true;
  /// Use per-list skip indexes for the initial seek (Figure 9's "NSL"
  /// ablation disables this: the prefix is scanned and discarded).
  bool use_skip_index = true;
  /// Property 1: deduce absence from the list frontiers (iNRA/Hybrid/SF).
  bool order_preservation = true;
  /// Property 2: tight best-case upper bounds from the set length.
  bool magnitude_bound = true;
  /// Stop admitting new candidates once F < τ (Section V). Also applied to
  /// the classic NRA baseline, as in the paper's experimental setup.
  bool f_cutoff = true;
  /// Scan the candidate set only while F < τ and stop at the first viable
  /// candidate (Section V's bookkeeping reductions).
  bool lazy_candidate_scan = true;
  /// Consult the MinHash sketch prefilter tier (src/sketch/) before the
  /// exact kernel. Only an index built with the opt-in
  /// InvertedIndexOptions::build_sketches, or loaded from an image that
  /// carries a sketch section, has a tier; on any other index this flag
  /// changes nothing. When the index carries sketches and the query's
  /// engage gate clears, the tier answers the query itself — banding
  /// candidate generation, partition routing, then exact verification of
  /// every admitted candidate, so the matches are byte-identical to the
  /// kernel's (see docs/SKETCHES.md for the exactness argument). Otherwise
  /// the query falls through unchanged. Ignored by the unindexed baselines
  /// (scan/SQL/sort-by-id).
  bool prefilter = true;
  /// Optional cache simulator: when set, every list page and hash bucket
  /// the inverted-list algorithms touch goes through this LRU and the
  /// hit/miss counts land in QueryResult counters (see
  /// storage/buffer_pool.h). Borrowed, not owned. Thread-safe (sharded):
  /// one pool may back any number of concurrent queries, modeling a shared
  /// server-wide page cache.
  BufferPool* buffer_pool = nullptr;
  /// Optional disk mode: when set, cursors fetch postings block-by-block
  /// out of this page-aligned store (real byte copies, page-granular I/O
  /// accounting) instead of the in-memory arrays (see
  /// storage/posting_store.h). Must have been built from the same index.
  /// Reads are side-effect-free on the image (per-cursor accounting), so
  /// one store serves concurrent queries.
  const PostingStore* posting_store = nullptr;
  /// Optional per-phase trace: when set, the selector and algorithms record
  /// timed spans (tokenize, planning, list rounds, verification) into it
  /// (see obs/trace.h). Owned by the caller, strictly one trace per query
  /// per thread — never share one across concurrent queries. Concurrent
  /// executors (BatchSelect, the K-segment fan-out) honor this by recording
  /// each worker into a private child trace and stitching the children
  /// into this trace after the join (obs::QueryTrace::AdoptChild), so the
  /// caller still gets one hierarchical span tree. Null (the default) costs a single
  /// pointer test per phase; an untraced query that fans out over more than
  /// one segment is still tail-sampled by the always-on flight recorder
  /// (obs/flight_recorder.h), which records into its own thread-local trace
  /// without touching this field.
  obs::QueryTrace* trace = nullptr;
  /// Per-query deadline/budget/cancellation limits. Default: no limits.
  /// Unlike the trace, the control may be shared across concurrent queries
  /// (the cancel token is an atomic, the other fields are read-only), so
  /// BatchSelect passes it through unchanged.
  QueryControl control;
};

/// The algorithms of the paper's evaluation (Section VIII).
enum class AlgorithmKind {
  kLinearScan,  ///< no index; exact scores for every set (testing baseline)
  kSql,         ///< relational plan on the q-gram table's clustered B-tree
  kSortById,    ///< merge of the query lists by id (no pruning)
  kTa,          ///< classic Threshold Algorithm (random access via hashes)
  kNra,         ///< classic No-Random-Access algorithm
  kIta,         ///< TA + semantic properties (Section V remark)
  kInra,        ///< improved NRA (Section V)
  kSf,          ///< Shortest-First (Section VI)
  kHybrid,      ///< Hybrid (Section VII)
  kPrefixFilter,  ///< prefix filter of [2] adapted to IDF (Related Work)
};

inline const char* AlgorithmKindName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kLinearScan:
      return "scan";
    case AlgorithmKind::kSql:
      return "SQL";
    case AlgorithmKind::kSortById:
      return "sort-by-id";
    case AlgorithmKind::kTa:
      return "TA";
    case AlgorithmKind::kNra:
      return "NRA";
    case AlgorithmKind::kIta:
      return "iTA";
    case AlgorithmKind::kInra:
      return "iNRA";
    case AlgorithmKind::kSf:
      return "SF";
    case AlgorithmKind::kHybrid:
      return "Hybrid";
    case AlgorithmKind::kPrefixFilter:
      return "PrefixFilter";
  }
  return "unknown";
}

}  // namespace simsel

#endif  // SIMSEL_CORE_TYPES_H_
