#ifndef SIMSEL_CORE_BM25_SELECT_H_
#define SIMSEL_CORE_BM25_SELECT_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/bm25.h"

namespace simsel {

/// Set similarity selection under **BM25 / BM25'** — completing the
/// Section IV remark for the second measure family ("The same ideas can be
/// applied to BM25 and other tf based weighted measures").
///
/// BM25 is not length-normalized, so Theorem 1 does not apply; what remains
/// monotone is the per-token contribution as a function of the document
/// length |s| (through K = k1·(1-b+b·|s|/avgdl)):
///
///   c_t(s) = tf(s,t)·(k1+1)/(tf(s,t)+K)  <=  mtf(t)·(k1+1)/(mtf(t)+K),
///
/// which *decreases* in |s|. Lists are therefore sorted by ascending |s|
/// (the posting payload stores |s| instead of a normalized length) and the
/// one Shortest-First loop runs unchanged (SfSelect's BM25 overload):
/// per-list cutoffs become the document length λ_k at which even presence
/// in every remaining list cannot reach τ (found by bisection — the bound
/// is monotone but not closed-form), Order Preservation holds because |s|
/// is constant across lists, and surviving candidates are verified exactly
/// against the base table. Control, τ clamping, disk mode and read-failure
/// statuses behave as for every other SF query.
class Bm25Selector {
 public:
  /// Builds the |s|-ordered inverted index over `measure`'s collection.
  Bm25Selector(const Bm25Measure& measure, InvertedIndexOptions options = {});

  /// All sets with BM25 score >= tau (tau in BM25's unnormalized scale).
  QueryResult Select(const PreparedQuery& q, double tau,
                     const SelectOptions& options = SelectOptions()) const;

  const InvertedIndex& index() const { return index_; }

  /// Largest per-list contribution bound for a document of length `d`
  /// (Bm25Measure::ContributionBound). Exposed for tests.
  double ContributionBound(const PreparedQuery& q, size_t i, double d) const;

 private:
  const Bm25Measure& measure_;
  InvertedIndex index_;
};

}  // namespace simsel

#endif  // SIMSEL_CORE_BM25_SELECT_H_
