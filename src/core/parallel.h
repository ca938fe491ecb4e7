#ifndef SIMSEL_CORE_PARALLEL_H_
#define SIMSEL_CORE_PARALLEL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/selector.h"

namespace simsel {

/// Parallel execution of set similarity selections — the paper's future-work
/// item ("we plan to ... devise parallel versions of all algorithms").
///
/// Two complementary strategies exist:
///  - inter-query: BatchSelect runs a workload of independent queries across
///    a thread pool (the front doors are const-thread-compatible), the
///    bread-and-butter parallelism of a similarity-search service;
///  - intra-query: a SimilaritySelector built with num_segments > 1 runs
///    one query's algorithm over every segment, segment 0 inline and the
///    rest on its pool (any algorithm but kSql), the pattern a partitioned
///    deployment uses per partition. ShardedSelector and a K-segment
///    DynamicSelector inherit it.

namespace internal {

/// The body of BatchSelect, written once for every front door: runs
/// `select(i, per_query_options)` for i in [0, n) on `pool` (the caller's
/// thread when null) with the retry policy and trace stitching documented
/// on BatchSelect.
std::vector<QueryResult> RunBatch(
    size_t n, const SelectOptions& options, ThreadPool* pool,
    const std::function<QueryResult(size_t, const SelectOptions&)>& select);

}  // namespace internal

/// Runs one selection per query string through any front door with
/// `Select(std::string_view, double, AlgorithmKind, const SelectOptions&)`
/// (SimilaritySelector, serve::ShardedSelector). Results are positionally
/// aligned with `queries`. Queries run concurrently on `pool`; a null pool
/// runs the batch in order on the caller's thread — the way to batch a
/// selector of K > 1 segments, whose Select fans out across its own pool
/// and must not run on the pool it scatters into.
///
/// `options.control` applies to every query of the batch: the deadline is
/// absolute, so queries dispatched later simply inherit less remaining time,
/// and one cancel token stops the whole batch. A query whose result carries
/// a transient failure Status (kUnavailable — e.g. an injected storage
/// fault) is retried up to two more times with bounded exponential backoff,
/// unless the deadline has already passed; the final attempt's Status is
/// surfaced in its QueryResult rather than crashing the batch.
///
/// When `options.trace` is set, every query records into a private child
/// trace (one trace per query per thread — no cross-thread sharing) and the
/// children are stitched into the caller's trace after the workers join:
/// one `batch` span with a `batch_query[i]` subtree per query, in query
/// order. Each QueryResult::trace then points at the stitched parent. A
/// retried query's subtree covers its final attempt.
template <class Selector>
std::vector<QueryResult> BatchSelect(const Selector& selector,
                                     const std::vector<std::string>& queries,
                                     double tau, AlgorithmKind kind,
                                     const SelectOptions& options,
                                     ThreadPool* pool) {
  return internal::RunBatch(
      queries.size(), options, pool,
      [&](size_t i, const SelectOptions& per_query) {
        return selector.Select(queries[i], tau, kind, per_query);
      });
}

}  // namespace simsel

#endif  // SIMSEL_CORE_PARALLEL_H_
