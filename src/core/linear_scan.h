#ifndef SIMSEL_CORE_LINEAR_SCAN_H_
#define SIMSEL_CORE_LINEAR_SCAN_H_

#include <limits>

#include "core/types.h"
#include "sim/measure.h"

namespace simsel {

/// Exhaustive baseline: scores every database set against the query and
/// reports those with score >= tau. No index is used; this is the ground
/// truth the property tests compare every other algorithm against, and the
/// scorer behind the Table I precision experiment. Scans the id range
/// [begin, end) clipped to the collection (all of it by default; a Segment
/// scans its own range). Only `options.control` is honored; a trip yields
/// the literal id-prefix [begin, s) scanned so far.
QueryResult LinearScanSelect(
    const SimilarityMeasure& measure, const Collection& collection,
    const PreparedQuery& q, double tau, const SelectOptions& options = {},
    SetId begin = 0, SetId end = std::numeric_limits<SetId>::max());

/// Exhaustive top-k: the k best sets of the whole collection in rank order
/// (score descending, ties toward the smaller id), zero scores included.
/// The reference SimilaritySelector::SelectTopK is checked against.
QueryResult LinearScanTopK(const SimilarityMeasure& measure,
                           const Collection& collection,
                           const PreparedQuery& q, size_t k);

}  // namespace simsel

#endif  // SIMSEL_CORE_LINEAR_SCAN_H_
