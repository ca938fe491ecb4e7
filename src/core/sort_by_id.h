#ifndef SIMSEL_CORE_SORT_BY_ID_H_
#define SIMSEL_CORE_SORT_BY_ID_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// The sort-by-id baseline (Section III-B, Figure 2): a merge of the query
/// tokens' id-sorted inverted lists. Every list is read completely — the
/// algorithm performs no pruning, so its cost is flat in the threshold — but
/// sets sharing no token with the query are never touched. Requires the
/// index to have been built with `build_id_lists`. Only `options.control` is
/// honored (the merge has no use for the pruning toggles).
///
/// The merge is a windowed counting merge. The id space is walked in
/// windows of 4096 ids, jumping straight to the window of the smallest
/// unread list head. Inside a window the lists are walked in ascending
/// query index, adding q.weights[i] into a per-thread, directly addressed
/// accumulator slot per id — the same additions in the same order as
/// IdfMeasure::ScoreFromBits, so scores are bit-identical. At the window's
/// end the touched slots are emitted in id order.
///
/// Accounting: every posting is read once, in id order, and each list is
/// charged ⌈size/P⌉ sequential pages (P postings per page). Without an
/// active control the charges are hoisted; with one they are made per
/// consumed position range [b, e) of a list as ⌈e/P⌉ − ⌈b/P⌉ (which
/// telescopes to the same total), the control is polled once per window and
/// after every non-empty list segment, and a tripped window's partial sums
/// are dropped (finished windows are exact, so the result is a sound
/// subset). Unread tails count as elements_skipped.
QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options = {});

}  // namespace simsel

#endif  // SIMSEL_CORE_SORT_BY_ID_H_
