#ifndef SIMSEL_CORE_ADAPTIVE_H_
#define SIMSEL_CORE_ADAPTIVE_H_

#include <string>

#include "core/selector.h"

namespace simsel {

/// Outcome of the adaptive planner: which algorithm to run and why.
struct PlanDecision {
  AlgorithmKind kind = AlgorithmKind::kSf;
  /// Postings inside the Theorem 1 window across the query's lists — the
  /// work estimate the decision is based on.
  uint64_t window_postings = 0;
  uint64_t total_postings = 0;
  const char* reason = "";
};

/// Chooses an algorithm for one query from index statistics, without
/// walking the lists (InvertedIndex::WindowSpan locates the Theorem 1
/// window boundaries through the block summaries in O(log) per list, plus
/// one landing block each).
///
/// The policy encodes the paper's experimental summary: SF wins whenever
/// pruning is possible; the sort-by-id merge (whose cost is flat) is
/// preferable only when the threshold gives pruning no room — a very low τ
/// whose window covers nearly all postings.
PlanDecision ChooseAlgorithm(const InvertedIndex& index,
                             const IdfMeasure& measure,
                             const PreparedQuery& q, double tau);

/// Plans and runs: equivalent to SelectPrepared with the chosen algorithm.
/// The decision can be retrieved separately via ChooseAlgorithm.
QueryResult AdaptiveSelect(const SimilaritySelector& selector,
                           const PreparedQuery& q, double tau,
                           const SelectOptions& options = SelectOptions());

}  // namespace simsel

#endif  // SIMSEL_CORE_ADAPTIVE_H_
