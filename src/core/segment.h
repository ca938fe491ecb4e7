#ifndef SIMSEL_CORE_SEGMENT_H_
#define SIMSEL_CORE_SEGMENT_H_

#include <memory>

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"
#include "sketch/prefilter.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"

namespace simsel {

/// One part of a collection that the algorithms run over: the sets with
/// global ids in [begin, end) and an inverted index over them (global ids
/// and lengths, see InvertedIndex::BuildShard), plus optional storage and
/// the optional sketch tier. SimilaritySelector holds K contiguous segments
/// (K = 1 by default) and concatenates their answers — the paper's "parallel
/// versions": the same exact algorithm over several parts of the collection.
struct Segment {
  SetId begin = 0;
  SetId end = 0;
  std::unique_ptr<InvertedIndex> index;
  /// Disk image of `index`'s lists; null serves them from memory.
  std::unique_ptr<PostingStore> store;
  /// Modeled page cache in front of `store` (null = none).
  std::unique_ptr<BufferPool> pool;
  /// Sketch prefilter tier over this segment (null when `index` carries no
  /// sketches). Its answers are byte-identical to the kernels'.
  std::unique_ptr<sketch::Prefilter> prefilter;
};

/// Runs `kind` over one segment: the only path from a prepared query to the
/// algorithm kernels. In order, it
///   - binds storage: a segment with a store overrides the caller's
///     `posting_store` and `buffer_pool` with its own (a store images one
///     index's lists, so any other would address the wrong postings); a
///     segment without one leaves `options` untouched and uncopied;
///   - tries the sketch prefilter (when `options.prefilter`, the segment has
///     a tier and `kind` is eligible);
///   - dispatches to the kernel. kLinearScan scans exactly [begin, end) of
///     `collection`. kSql has no segment form (the relational baseline is
///     one monolithic B-tree): callers route it elsewhere, and passing it
///     here is a checked programming error.
/// `measure` scores with collection-wide statistics, so every segment's
/// matches are exactly the whole collection's matches inside its id range.
QueryResult SelectSegment(const Segment& segment, const IdfMeasure& measure,
                          const Collection& collection, const PreparedQuery& q,
                          double tau, AlgorithmKind kind,
                          const SelectOptions& options);

}  // namespace simsel

#endif  // SIMSEL_CORE_SEGMENT_H_
