#include "core/adaptive.h"

#include "core/internal.h"

namespace simsel {

PlanDecision ChooseAlgorithm(const InvertedIndex& index,
                             const IdfMeasure& measure,
                             const PreparedQuery& q, double tau) {
  (void)measure;
  PlanDecision decision;
  const internal::LengthWindow window =
      internal::ComputeLengthWindow(q, tau, /*enabled=*/true);

  for (TokenId t : q.tokens) {
    decision.total_postings += index.ListSize(t);
    // Exact: the span is inclusive at both ends, like LengthWindow::Contains.
    decision.window_postings += index.WindowSpan(t, window.lo, window.hi).size();
  }

  if (q.tokens.empty()) {
    decision.kind = AlgorithmKind::kSf;
    decision.reason = "empty query";
    return decision;
  }
  // Flat-cost merge only pays off when pruning has no room: the window
  // covers nearly everything AND the threshold is too low for the F-bound
  // to converge early.
  bool window_useless =
      decision.total_postings > 0 &&
      decision.window_postings * 10 >= decision.total_postings * 9;
  if (tau < 0.35 && window_useless) {
    decision.kind = AlgorithmKind::kSortById;
    decision.reason = "low threshold, window covers the lists";
    return decision;
  }
  decision.kind = AlgorithmKind::kSf;
  decision.reason = "pruning available: Shortest-First";
  return decision;
}

QueryResult AdaptiveSelect(const SimilaritySelector& selector,
                           const PreparedQuery& q, double tau,
                           const SelectOptions& options) {
  PlanDecision decision =
      ChooseAlgorithm(selector.index(), selector.measure(), q, tau);
  return selector.SelectPrepared(q, tau, decision.kind, options);
}

}  // namespace simsel
