#ifndef SIMSEL_CORE_SF_H_
#define SIMSEL_CORE_SF_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/bm25.h"
#include "sim/idf.h"
#include "sim/tfidf.h"

namespace simsel {

/// The Shortest-First algorithm (Algorithm 3, Section VI): a depth-first
/// strategy that consumes the query's lists in decreasing idf order (rare
/// tokens — short lists — first). For each list i it computes the cutoff
///
///   λ_i = Σ_{j>=i} idf(q^j)² / (τ·len(q))     (Equation 2)
///
/// beyond which no *new* set can still reach the threshold, and scans the
/// list from τ·len(q) up to max(max_len(C), min(λ_i, len(q)/τ)) — deep
/// enough to resolve every existing candidate (matched or provably absent,
/// by Order Preservation) and to admit every viable new one. Candidates
/// live in a single length-sorted list that is merge-scanned exactly once
/// per query list, which is why SF's bookkeeping cost is the lowest of the
/// family and why it wins the paper's evaluation overall.
///
/// `options.order_preservation` and `options.magnitude_bound` are intrinsic
/// to SF and ignored; `length_bounding` and `use_skip_index` are honored
/// (Figures 8 and 9).
QueryResult SfSelect(const InvertedIndex& index, const IdfMeasure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options);

/// The same loop under full cosine TF/IDF (Section IV's "looser versions"
/// of the properties): `index` holds TF/IDF set lengths, every per-list
/// bound is boosted by the token's maximum tf (κ_i = tf(q,i)·mtf·idf²), the
/// Theorem-1 window by the query's and the lists' maximum tf, and every
/// survivor is verified with an exact TF/IDF score (see TfIdfSelector).
QueryResult SfSelect(const InvertedIndex& index, const TfIdfMeasure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options);

/// The same loop under BM25/BM25': `index` holds document lengths |s|, the
/// per-list bound is Bm25Measure::ContributionBound at the candidate's |s|,
/// λ_k is found by bisection, there is no length window, and every survivor
/// is verified with an exact BM25 score (see Bm25Selector).
QueryResult SfSelect(const InvertedIndex& index, const Bm25Measure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options);

}  // namespace simsel

#endif  // SIMSEL_CORE_SF_H_
