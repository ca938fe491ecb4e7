#include "core/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "core/internal.h"
#include "obs/trace.h"

namespace simsel {

QueryResult ParallelLinearScanSelect(const SimilarityMeasure& measure,
                                     const Collection& collection,
                                     const PreparedQuery& q, double tau,
                                     ThreadPool* pool,
                                     const SelectOptions& options) {
  tau = internal::ClampTau(tau);
  const size_t num_shards = std::max<size_t>(1, pool->num_threads());
  const size_t n = collection.size();
  const size_t shard_size = (n + num_shards - 1) / num_shards;
  std::vector<QueryResult> shards(num_shards);

  ParallelFor(pool, num_shards, [&](size_t shard) {
    SetId begin = static_cast<SetId>(std::min(n, shard * shard_size));
    SetId end = static_cast<SetId>(std::min(n, (shard + 1) * shard_size));
    QueryResult& out = shards[shard];
    internal::ControlPoller poller(options.control, out.counters);
    for (SetId s = begin; s < end; ++s) {
      if (((s - begin) & 1023u) == 0 && poller.ShouldStop()) {
        out.termination = poller.termination();
        break;
      }
      ++out.counters.rows_scanned;
      double score = measure.Score(q, s);
      if (score >= tau) out.matches.push_back(Match{s, score});
    }
  });

  QueryResult result;
  for (QueryResult& shard : shards) {
    result.counters.Merge(shard.counters);
    result.matches.insert(result.matches.end(), shard.matches.begin(),
                          shard.matches.end());
    // Any tripped shard makes the whole result partial.
    if (shard.termination != Termination::kCompleted) {
      result.termination = shard.termination;
    }
  }
  // Shards are id-disjoint and internally sorted; a merge by id suffices,
  // and shard order is already ascending-id order.
  result.counters.results = result.matches.size();
  return result;
}

QueryResult ParallelSortByIdSelect(const InvertedIndex& index,
                                   const IdfMeasure& measure,
                                   const PreparedQuery& q, double tau,
                                   ThreadPool* pool,
                                   const SelectOptions& options) {
  tau = internal::ClampTau(tau);
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  SIMSEL_CHECK_MSG(index.options().build_id_lists,
                   "parallel sort-by-id needs an index built with "
                   "build_id_lists");
  // Partition the id space by the largest id present in any query list.
  uint32_t max_id = 0;
  bool any = false;
  for (TokenId t : q.tokens) {
    size_t size = index.ListSize(t);
    if (size > 0) {
      any = true;
      max_id = std::max(max_id, index.IdIds(t)[size - 1]);
    }
  }
  if (!any) return result;

  const size_t shards = std::max<size_t>(1, pool->num_threads());
  std::vector<QueryResult> partial(shards);
  ParallelFor(pool, shards, [&](size_t s) {
    auto [lo, hi] = internal::SortByIdShardRange(max_id, shards, s);
    internal::SortByIdMergeRange(index, measure, q, tau, lo, hi,
                                 options.control, &partial[s]);
  });
  for (QueryResult& p : partial) {
    result.counters.Merge(p.counters);
    result.matches.insert(result.matches.end(), p.matches.begin(),
                          p.matches.end());
    if (p.termination != Termination::kCompleted) {
      result.termination = p.termination;
    }
  }
  result.counters.results = result.matches.size();
  return result;
}

namespace internal {

std::vector<QueryResult> RunBatch(
    size_t n, const SelectOptions& options, ThreadPool* pool,
    const std::function<QueryResult(size_t, const SelectOptions&)>& select) {
  std::vector<QueryResult> results(n);
  // One QueryTrace records one query on one thread, so the caller's trace
  // cannot be handed to the workers directly. Instead every query records
  // into its own private child trace, and after the workers are joined the
  // children are stitched into the caller's trace as `batch_query[i]`
  // subtrees (obs::QueryTrace::AdoptChild) — the caller gets one span tree
  // with a subtree per query, in query order, regardless of how the batch
  // was scheduled. The control is shared as before: its fields are
  // shareable (the cancel token is atomic, the rest read-only) and the
  // absolute deadline is exactly what bounds a whole batch.
  const bool traced = options.trace != nullptr;
  obs::TraceScope batch_span(options.trace, "batch");
  std::vector<obs::QueryTrace> child_traces(traced ? n : 0);
  SelectOptions per_query = options;
  per_query.trace = nullptr;
  constexpr int kMaxAttempts = 3;
  constexpr auto kBackoffBase = std::chrono::microseconds(100);
  ParallelFor(pool, n, [&](size_t i) {
    SelectOptions query_options = per_query;
    if (traced) query_options.trace = &child_traces[i];
    for (int attempt = 0;; ++attempt) {
      if (traced && attempt > 0) child_traces[i].Clear();  // last try only
      results[i] = select(i, query_options);
      const Status& st = results[i].status;
      if (st.ok() || !st.IsTransient() || attempt + 1 >= kMaxAttempts) break;
      if (query_options.control.has_deadline() &&
          QueryControl::Clock::now() >= query_options.control.deadline) {
        break;  // no time left to retry; surface the transient failure
      }
      std::this_thread::sleep_for(kBackoffBase * (1 << attempt));
    }
  });
  if (traced) {
    // Workers are joined; the child traces are quiescent and safe to read.
    for (size_t i = 0; i < n; ++i) {
      options.trace->AdoptChild("batch_query", static_cast<uint32_t>(i),
                                child_traces[i], results[i].matches.size());
      // Select() pointed each result at its (stack-owned) child trace; the
      // stitched parent is the only trace that outlives this call.
      results[i].trace = options.trace;
    }
  }
  batch_span.SetItems(n);
  return results;
}

std::pair<uint64_t, uint64_t> SortByIdShardRange(uint32_t max_id,
                                                 size_t shards, size_t shard) {
  // 64-bit end-to-end: uint32_t arithmetic wraps the last shard's exclusive
  // bound to 0 when max_id == UINT32_MAX.
  const uint64_t end = static_cast<uint64_t>(max_id) + 1;
  const uint64_t span = static_cast<uint64_t>(max_id) / shards + 1;
  uint64_t lo = std::min(end, shard * span);
  uint64_t hi = (shard + 1 == shards) ? end : std::min(end, (shard + 1) * span);
  return {lo, std::max(lo, hi)};
}

}  // namespace internal

}  // namespace simsel
