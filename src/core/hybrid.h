#ifndef SIMSEL_CORE_HYBRID_H_
#define SIMSEL_CORE_HYBRID_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// The Hybrid algorithm (Algorithm 4, Section VII): iNRA's breadth-first
/// round-robin combined with SF's max_len(C) stopping condition, so it never
/// descends deeper into a list than either parent strategy. The candidate
/// set is organized as the paper prescribes — one length-sorted queue per
/// origin list plus an id table — making max_len(C) an O(n) peek at queue
/// backs instead of a full candidate scan. The extra bookkeeping is why the
/// paper finds Hybrid slightly slower than SF in wall-clock despite equal or
/// better pruning.
QueryResult HybridSelect(const InvertedIndex& index, const IdfMeasure& measure,
                         const PreparedQuery& q, double tau,
                         const SelectOptions& options);

}  // namespace simsel

#endif  // SIMSEL_CORE_HYBRID_H_
