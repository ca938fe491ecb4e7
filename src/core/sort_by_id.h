#ifndef SIMSEL_CORE_SORT_BY_ID_H_
#define SIMSEL_CORE_SORT_BY_ID_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// The sort-by-id baseline (Section III-B, Figure 2): a merge of the query
/// tokens' id-sorted inverted lists. Every list is read completely — the
/// algorithm performs no pruning, so its cost is flat in the threshold — but
/// sets sharing no token with the query are never touched. The merge is a
/// windowed counting merge (internal::SortByIdMergeRange in core/internal.h).
/// Requires the index to have been built with `build_id_lists`. Only
/// `options.control` is honored (the merge has no use for the pruning
/// toggles); with an active control the read accounting switches from
/// hoisted to per list segment so budget trips see true totals.
QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options = {});

}  // namespace simsel

#endif  // SIMSEL_CORE_SORT_BY_ID_H_
