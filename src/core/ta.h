#ifndef SIMSEL_CORE_TA_H_
#define SIMSEL_CORE_TA_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// Classic Threshold Algorithm (Fagin et al.): round-robin sequential access
/// over the weight-sorted lists; every newly seen set id is completed
/// immediately by a membership probe of each other list (one random page
/// I/O each). The set arrives with its len(s), and lists are sorted by
/// (len, id), so the probe searches the block summaries and one block
/// (InvertedIndex::Contains) instead of a per-list hash, or is answered by
/// the list's cursor when it already stands at or past (len(s), s).
/// Terminates when the frontier bound F drops below tau.
QueryResult TaSelect(const InvertedIndex& index, const IdfMeasure& measure,
                     const PreparedQuery& q, double tau);

/// iTA (Section V remark): TA plus Length Boundedness (skip to τ·len(q),
/// stop past len(q)/τ) and Magnitude Boundedness (a set whose best-case
/// score is below tau is discarded before any membership probe is issued).
QueryResult ItaSelect(const InvertedIndex& index, const IdfMeasure& measure,
                      const PreparedQuery& q, double tau,
                      const SelectOptions& options);

namespace internal {
/// Shared engine; `improved` selects iTA behaviour.
QueryResult TaEngineSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options,
                           bool improved);
}  // namespace internal

}  // namespace simsel

#endif  // SIMSEL_CORE_TA_H_
