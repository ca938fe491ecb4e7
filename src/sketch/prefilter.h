#ifndef SIMSEL_SKETCH_PREFILTER_H_
#define SIMSEL_SKETCH_PREFILTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "sim/idf.h"
#include "sketch/minhash.h"
#include "sketch/partition_router.h"

namespace simsel {
class InvertedIndex;
class ThreadPool;
}  // namespace simsel

namespace simsel::sketch {

/// One banding-table entry. The set's normalized length rides along so the
/// probe loop screens hits against the query's length window and partition
/// mask sequentially, without a random set_length read per hit.
struct BandEntry {
  uint64_t key;
  uint32_t row;
  float len;
  bool operator<(const BandEntry& o) const {
    return key != o.key ? key < o.key : row < o.row;
  }
};

/// Sorts entries[0, n) by (key, row) in O(n) for hashed keys: a stable
/// counting sort on the top min(16, ceil(log2 n)) key bits — about one entry
/// per bucket — then each bucket sorted in place (insertion sort; a
/// comparison sort only for a bucket of more than 32 entries, which takes
/// many sets with equal band components). n fits in 32 bits, as rows do.
/// `scratch` is reusable working memory; its contents on return are
/// unspecified.
void SortBandTable(BandEntry* entries, size_t n,
                   std::vector<BandEntry>* scratch);

/// Per-query screen for dynamic-index delta records (which live outside the
/// banding tables): window test, impossible-intersection test, then a
/// full-signature MinHash admission at the Chernoff–Hoeffding slack ε.
/// Unlike the banding stage, the full-signature screen is sound at *any*
/// similarity level (P(Ĵ < J − ε) ≤ δ regardless of J), so it needs no
/// engage gate and can run for every τ. Admits == false means "provably not
/// a match at the configured error bound"; true means "verify exactly".
class DeltaScreen {
 public:
  DeltaScreen() = default;

  /// False when the screen was built from an empty/weightless query and can
  /// never reject; callers skip it entirely then.
  bool active() const { return active_; }

  /// `sig` is the record's k-component signature (may not be null),
  /// `length` its frozen normalized length, `set_size` its distinct token
  /// count.
  bool Admits(const uint64_t* sig, float length, size_t set_size) const;

 private:
  friend class Prefilter;

  bool active_ = false;
  std::vector<uint64_t> qsig_;
  std::vector<double> prefix_;  // descending query weights, prefix-summed
  double total_ = 0.0;
  double tau_ = 0.0;
  double q_length_ = 0.0;
  double epsilon_ = 0.0;
  size_t q_size_ = 0;
  float win_lo_ = 0.0f;
  float win_hi_ = 0.0f;
};

/// The sketch prefilter tier: MinHash banding for candidate generation,
/// statistical partition routing for corpus-level pruning, and exact
/// verification of every admitted candidate — so results are byte-identical
/// to the exact kernels whenever the tier engages (see docs/SKETCHES.md for
/// the full exactness argument).
///
/// Per query the tier runs a two-phase engage gate:
///  - Phase A (allocation-light, O(|q| log |q| + log n)): derive the
///    minimum intersection cardinality m_min every answer must share with
///    the query, bound the candidate Jaccard from below, and fall through
///    to the exact kernels unless that bound clears EngageThreshold.
///  - Phase B: route through the PartitionRouter, tighten the set-size
///    bound to the admitted partitions, and re-check the gate.
/// Only when both phases pass does the tier answer the query itself:
/// banding probe → window/partition/signature admission → exact
/// measure.Score verification, with every stage charged to the standard
/// AccessCounters and its false positives measured.
class Prefilter {
 public:
  /// Introspection of the engage decision (tests, explain output).
  struct Plan {
    bool engaged = false;  ///< tier answers the query itself
    bool empty = false;    ///< engaged with a proof that no set matches
    double j_min = 0.0;    ///< Jaccard lower bound over possible answers
    double j_engage = 0.0;  ///< EngageThreshold(params)
    double epsilon = 0.0;   ///< AdmissionEpsilon(params)
    uint32_t m_min = 0;     ///< minimum intersection cardinality
    uint32_t max_set_size = 0;
    uint32_t admitted_partitions = 0;
    uint32_t total_partitions = 0;
  };

  /// Builds the derived structures (banding tables, partition router) over
  /// the persisted signatures of sets [begin, end). `signatures` holds
  /// (end - begin) rows of params.k words, row i belonging to set begin + i;
  /// it is borrowed and must outlive the Prefilter (the InvertedIndex owns
  /// it). The band tables are built on `pool` when given, else on the
  /// calling thread; they are identical either way. Returns null when
  /// params are invalid or the range is empty.
  static std::unique_ptr<Prefilter> Build(const IdfMeasure& measure,
                                          const SketchParams& params,
                                          const uint64_t* signatures,
                                          SetId begin, SetId end,
                                          ThreadPool* pool = nullptr,
                                          uint32_t partitions = 32,
                                          uint32_t buckets = 64);

  /// Runs the tier for one prepared query. Returns true when the tier
  /// engaged — `*result` then holds the complete (or control-tripped
  /// partial) answer, byte-identical in matches to any exact kernel — and
  /// false to fall through to the exact kernel unchanged (`*result` is then
  /// untouched).
  bool TrySelect(const PreparedQuery& q, double tau,
                 const SelectOptions& options, QueryResult* result) const;

  /// The engage decision alone, without executing (cheap; Phase A + B).
  Plan PlanFor(const PreparedQuery& q, double tau) const;

  /// Builds the delta-record screen for one query (DynamicSelector's delta
  /// scan). Never unsound: an inactive screen admits everything.
  DeltaScreen MakeDeltaScreen(const PreparedQuery& q, double tau) const;

  const SketchParams& params() const { return params_; }
  /// Component salts — DynamicSelector uses these to sketch delta records
  /// with the exact family the persisted signatures were built with.
  const std::vector<uint64_t>& seeds() const { return seeds_; }
  const PartitionRouter& router() const { return router_; }
  /// Bytes of derived (recomputed-at-load, not persisted) structures.
  size_t DerivedBytes() const;

 private:
  Prefilter() = default;

  struct Gate;  // internal Phase A/B working state (prefilter.cc)
  void RunGate(const PreparedQuery& q, double tau, Gate* gate) const;

  const IdfMeasure* measure_ = nullptr;
  SketchParams params_;
  const uint64_t* sigs_ = nullptr;  // borrowed rows of params_.k words
  SetId begin_ = 0;
  uint32_t num_sets_ = 0;
  std::vector<uint64_t> seeds_;
  double epsilon_ = 0.0;
  double j_engage_ = 0.0;
  PartitionRouter router_;
  // Banding tables, band b at [b * num_sets_, (b + 1) * num_sets_): per
  // band, entries sorted by (key, row); probing one band is a binary search
  // followed by a sequential run scan.
  std::unique_ptr<BandEntry[]> bands_;
};

/// True for the kinds the tier may answer: the index-kernel kinds. The
/// unindexed baselines (scan, SQL, sort-by-id) run every set / row anyway,
/// so the tier would only distort their accounting.
inline bool PrefilterEligible(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kLinearScan:
    case AlgorithmKind::kSql:
    case AlgorithmKind::kSortById:
      return false;
    default:
      return true;
  }
}

/// Builds the tier from an index's persisted sketch section over the
/// measure's collection; null when the index carries no sketches. The band
/// tables are built on MakeBuildPool(index.options(), index.total_postings())
/// — the same thread rule as the index build.
std::unique_ptr<Prefilter> AttachPrefilter(const IdfMeasure& measure,
                                           const InvertedIndex& index);

}  // namespace simsel::sketch

#endif  // SIMSEL_SKETCH_PREFILTER_H_
