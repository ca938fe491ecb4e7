#ifndef SIMSEL_CORE_DYNAMIC_H_
#define SIMSEL_CORE_DYNAMIC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "core/selector.h"

namespace simsel {

class ThreadPool;

namespace dynamic_internal {
class DeltaIndex;
struct State;
}  // namespace dynamic_internal

/// Growable set-similarity service: a concurrent main + delta architecture.
///
/// The paper's indexes are built offline over a frozen collection (idf
/// weights and normalized lengths depend on global statistics, so a single
/// insert would invalidate every posting). Real deployments solve this the
/// way column stores and search engines do: an immutable *main* segment
/// carrying the statistics, plus a small *delta* of recent inserts — here
/// with its own per-token inverted index — folded into the main by Rebuild.
///
/// **Frozen-statistics semantics.** Token statistics (df, idf, N) are frozen
/// at the last Rebuild. New records are tokenized against the frozen
/// dictionary (tokens never seen by the main segment cannot match queries —
/// they contribute to the record's length only) and scored with frozen
/// weights, so main and delta scores are mutually comparable and results
/// merge cleanly. The frozen record length is accumulated over known tokens
/// in ascending-TokenId order — the exact summation order IdfMeasure uses —
/// so a delta record scores *bit-identically* to the same record in a main
/// segment with the same statistics. Token multiplicity is deliberately
/// ignored beyond the length: the IDF measure is set-semantic (weights are
/// per distinct token; see sim/idf.h), so a repeated token contributes once
/// before and after Rebuild alike. Rebuild() folds the delta in and
/// refreshes all statistics.
///
/// Ids are stable: record i (in insertion order across segments) is SetId i
/// before and after Rebuild.
///
/// **Concurrency.** Safe for any number of concurrent readers (Select, text,
/// size, snapshot) with concurrent AddRecord writers and an online
/// Rebuild:
///
///  - Appends go into the delta's chunked record log and per-token posting
///    lists, published to readers with a single release store of the record
///    count; writers serialize on one mutex, readers never take it.
///  - Every read runs against a *snapshot*: an epoch-pinned {main segment,
///    delta cut} pair with a stable version(), so a query sees a consistent
///    collection even while appends and a rebuild race it.
///  - Rebuild() snapshots the texts under the writer mutex (brief), builds
///    the replacement main segment with *no* lock held (appends and queries
///    proceed against the old state), swaps it in, and retires the old
///    state through an EpochManager — in-flight queries drain on the old
///    segment and the memory is reclaimed only after the last one exits.
///    StartRebuild runs the same procedure on a ThreadPool worker.
class DynamicSelector {
 public:
  /// `options` builds the main part at construction and at every Rebuild:
  /// a SimilaritySelector over `num_segments` segments, in disk mode each
  /// with its own PostingStore (and pool) that is rebuilt and swapped with
  /// the main part, so a store never addresses a stale index.
  explicit DynamicSelector(const std::vector<std::string>& initial_records,
                           const BuildOptions& options = BuildOptions());
  /// Waits for an in-flight StartRebuild, then frees every segment. No
  /// reads may be in flight.
  ~DynamicSelector();

  DynamicSelector(const DynamicSelector&) = delete;
  DynamicSelector& operator=(const DynamicSelector&) = delete;

  /// A consistent, immutable view of the collection: one main segment plus
  /// a fixed prefix of the delta, epoch-pinned so a concurrent Rebuild
  /// cannot free it underneath the holder. Queries against a snapshot are
  /// byte-identical to serial queries against the collection frozen at
  /// version(). Hold it only as long as needed — a live snapshot delays
  /// reclamation of a swapped-out segment. Move-only.
  class Snapshot {
   public:
    /// The selector version this view corresponds to (see
    /// DynamicSelector::version).
    uint64_t version() const;
    /// The rebuild generation of the pinned main part: 0 at construction,
    /// +1 per Rebuild swap. Statistics are frozen within a generation, so
    /// with delta_size() as the cut it is the serving cache's stamp
    /// (serve::CacheStamp). Stored, not derived from version(): a rebuild
    /// that carries mid-build appends gives the new generation versions
    /// the old one already had.
    uint64_t generation() const;
    size_t size() const;
    size_t delta_size() const;
    /// The pinned main part; valid while this snapshot is alive.
    const SimilaritySelector& main() const;
    /// Record text by id (main part or delta), copied out.
    std::string text(SetId id) const;

    PreparedQuery Prepare(std::string_view query) const;
    /// Same contract as DynamicSelector::Select, against this fixed cut.
    QueryResult Select(std::string_view query, double tau,
                       AlgorithmKind kind = AlgorithmKind::kSf,
                       const SelectOptions& options = SelectOptions()) const;
    QueryResult SelectPrepared(const PreparedQuery& q, double tau,
                               AlgorithmKind kind,
                               const SelectOptions& options) const;
    /// Brings `*result` — a complete answer to `q` at `clamped_tau` from
    /// this generation, exact at delta cut `from` <= delta_size() (a cached
    /// answer) — up to this snapshot: runs the delta part over positions
    /// [from, delta_size()) only, appending its matches (their ids lie above
    /// every older id) and adding its reads to `result->counters`, and
    /// stamps version(). The postings below `from` are skipped a whole
    /// posting node at a time. Records no query metrics: the query was
    /// executed, and flushed, once by the answer's first run.
    void PatchDelta(const PreparedQuery& q, double clamped_tau, uint32_t from,
                    const SelectOptions& options, QueryResult* result) const;

    /// Made by DynamicSelector::snapshot (State is internal to it).
    Snapshot(EpochManager::Guard guard, const dynamic_internal::State* state,
             uint32_t delta_count);
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;

   private:
    EpochManager::Guard guard_;
    const dynamic_internal::State* state_;
    uint32_t delta_count_;
  };

  /// Pins and returns the current state. Thread-safe, lock-free.
  Snapshot snapshot() const;

  /// Appends a record to the delta segment; returns its id. O(|tokens|)
  /// plus the frozen-dictionary lookups. Thread-safe against concurrent
  /// AddRecord, Select and Rebuild; concurrent writers serialize on an
  /// internal mutex. Takes the text by value so callers may pass the result
  /// of text(i).
  SetId AddRecord(std::string text);

  /// Total records across both segments (at the current snapshot).
  size_t size() const;
  /// Records awaiting a Rebuild (at the current snapshot).
  size_t delta_size() const;

  /// Record text by id (either segment), copied out of the pinned snapshot
  /// — a reference could dangle once a Rebuild retires the segment.
  std::string text(SetId id) const;

  /// Workers for the main part's segment fan-out, passed to every main
  /// selector this builds (SimilaritySelector::set_thread_pool; borrowed,
  /// null = serial). Not synchronized with in-flight queries or rebuilds:
  /// set it before serving.
  void set_thread_pool(ThreadPool* pool);

  /// Selection over the main part and the delta with frozen statistics,
  /// in two parts and one metrics flush. The main part runs `kind` through
  /// the main selector (over each of its segments); the delta part is
  /// resolved through its per-token inverted index (candidates charged to
  /// rows_scanned, postings to elements_read) and scored by the same
  /// IdfMeasure; its ids lie above every main id. The delta part runs
  /// only after a complete, OK main part (a failed result's matches are
  /// already cleared; appending delta matches would disguise a partial as
  /// fuller than its termination admits). `options.control` bounds the
  /// delta part exactly like the main algorithms: the poller is checked
  /// per token list and per candidate batch, and a trip returns a sound
  /// partial result with QueryResult::termination set. The query's
  /// latency, work counters and termination are recorded once
  /// (internal::RecordQueryMetrics), delta part included.
  QueryResult Select(std::string_view query, double tau,
                     AlgorithmKind kind = AlgorithmKind::kSf,
                     const SelectOptions& options = SelectOptions()) const;

  /// Folds the delta into a freshly built main segment and recomputes
  /// df/idf/lengths. Online: readers and writers proceed concurrently
  /// against the old state for the whole build; only the final pointer swap
  /// (plus re-analysis of records appended mid-build) excludes writers.
  /// Afterwards results are identical to a fresh Build over all records
  /// appended before the rebuild's snapshot point (later appends stay in
  /// the new delta). Blocks if another rebuild is already running, then
  /// runs its own.
  void Rebuild();

  /// Rebuild() on a pool worker: returns immediately. False (and no work
  /// scheduled) if a rebuild is already in flight. The pool must outlive
  /// the selector's destruction or WaitForRebuild.
  bool StartRebuild(ThreadPool* pool);

  /// Blocks until no rebuild is in flight.
  void WaitForRebuild() const;
  bool rebuild_in_progress() const;

  /// Monotone content version: bumped by every AddRecord and Rebuild, and
  /// stamped on every answer (QueryResult::snapshot_version), which is
  /// byte-identical to a serial query against the collection frozen at it.
  /// Strictly monotone, so two equal reads bracket one unchanged
  /// collection. The serving cache does not key on it: it stamps answers
  /// with Snapshot::generation() and the delta cut, because an answer of
  /// one generation stays exact across appends once the newer delta
  /// records are patched in (serve/result_cache.h).
  ///
  /// Ordering: the counter is released *after* the content change it
  /// stamps is visible (delta publish / segment swap), so an observer that
  /// reads version v and then queries sees a collection at least as new as
  /// v. Reads are acquire loads; there is no torn read.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  bool disk_mode() const { return build_options_.disk_mode; }

 private:
  dynamic_internal::State* BuildState(const std::vector<std::string>& texts,
                                      uint64_t base_version) const;
  void DoRebuild();

  BuildOptions build_options_;
  ThreadPool* pool_ = nullptr;

  /// Current state; swapped by Rebuild, dereferenced by readers only under
  /// an epoch guard (seq_cst on both sides — see common/epoch.h for why).
  std::atomic<dynamic_internal::State*> state_{nullptr};
  std::atomic<uint64_t> version_{0};
  mutable EpochManager epochs_;

  /// Serializes AddRecord appends with each other and with the Rebuild
  /// swap. Never held during a main-segment build.
  std::mutex append_mu_;

  /// One rebuild at a time (sync or pool-backed).
  mutable std::mutex rebuild_mu_;
  mutable std::condition_variable rebuild_cv_;
  bool rebuild_running_ = false;  // guarded by rebuild_mu_
};

}  // namespace simsel

#endif  // SIMSEL_CORE_DYNAMIC_H_
