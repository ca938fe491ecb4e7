#ifndef SIMSEL_CORE_TFIDF_SELECT_H_
#define SIMSEL_CORE_TFIDF_SELECT_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/tfidf.h"

namespace simsel {

/// Set similarity selection under full cosine **TF/IDF** — the extension the
/// paper sketches in Section IV: "TF/IDF and BM25 follow looser versions of
/// the aforementioned properties (by associating with every token a maximum
/// tf component and boosting all bounds accordingly). Existing and novel
/// algorithms for these metrics can also be optimized accordingly."
///
/// Let mtf(t) be the maximum tf of token t over the database (known at
/// build time) and mtfq = max_i tf(q, i). The boosted bounds, each proven by
/// replacing an unknown tf with its maximum:
///
///  - boosted Length Boundedness:
///      τ·len(q) / mtfq  <=  ||s||  <=  max_i mtf(q^i) · len(q) / τ;
///  - boosted per-list contribution (Magnitude Boundedness / λ cutoffs):
///      w_i(s) <= κ_i / (||s||·||q||),  κ_i = tf(q,i)·mtf(q^i)·idf(q^i)².
///
/// The engine is the one Shortest-First loop (SfSelect's TF/IDF overload)
/// over an inverted index built with TF/IDF set lengths
/// (InvertedIndex::BuildWithLengths): lists are processed in decreasing κ
/// order with boosted λ cutoffs, and candidates that survive the bound-based
/// pruning are verified with an exact score against the base table (the
/// postings cannot carry per-set tfs, so scores are not computable from the
/// lists alone — verification is one record fetch, charged to
/// rows_scanned). Being SF, it honors SelectOptions like every strategy:
/// τ goes through ClampTau, `control` trips into a sound partial result,
/// `posting_store`/`buffer_pool` select disk mode, and a failed disk read
/// surfaces in QueryResult::status.
///
/// Exactness is asserted against a TF/IDF linear scan in tfidf_select_test.
class TfIdfSelector {
 public:
  /// Builds the TF/IDF-specific inverted index over `measure`'s collection.
  TfIdfSelector(const TfIdfMeasure& measure,
                InvertedIndexOptions options = {});

  /// All sets with TF/IDF cosine similarity >= tau.
  QueryResult Select(const PreparedQuery& q, double tau,
                     const SelectOptions& options = SelectOptions()) const;

  const InvertedIndex& index() const { return index_; }

 private:
  const TfIdfMeasure& measure_;
  InvertedIndex index_;
};

}  // namespace simsel

#endif  // SIMSEL_CORE_TFIDF_SELECT_H_
