#include "core/parallel.h"

#include <chrono>
#include <thread>

#include "obs/trace.h"

namespace simsel {

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

}  // namespace internal

}  // namespace simsel
