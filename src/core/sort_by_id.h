#ifndef SIMSEL_CORE_SORT_BY_ID_H_
#define SIMSEL_CORE_SORT_BY_ID_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// The sort-by-id baseline (Section III-B, Figure 2): a merge of the query
/// tokens' inverted lists by set id. Every list is read completely — the
/// algorithm performs no pruning, so its cost is flat in the threshold — but
/// sets sharing no token with the query are never touched. Only
/// `options.control` and `options.buffer_pool` are honored; the merge has no
/// use for the pruning toggles.
///
/// The lists are the (len, id)-sorted ones every other kernel reads: with no
/// pruning, list order changes neither the answer nor the cost. Each list is
/// drained through a ListCursor span by span, in ascending query index, and
/// each posting adds q.weights[i] into a per-thread accumulator slot for its
/// id — in ascending query index, the additions of
/// IdfMeasure::ScoreFromBits, so scores are bit-identical. The touched ids
/// are then scored in id order through IdfMeasure::ScoreFromSum with
/// IdfMeasure::set_length.
///
/// Accounting is the cursors': every posting is read once and each list is
/// charged ⌈size/P⌉ sequential pages (P postings per page), with a buffer
/// pool touch per page. The postings come from the index's arrays even when
/// `options.posting_store` is set: decoding the store would cost more than
/// twice the merge. The control is polled once per span. A tripped query
/// stops reading and reports no matches (its sums are incomplete; the empty
/// answer is the sound subset), and unread postings count as
/// elements_skipped.
QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options = {});

}  // namespace simsel

#endif  // SIMSEL_CORE_SORT_BY_ID_H_
