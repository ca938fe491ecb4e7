#include "core/sort_by_id.h"

#include <cstdint>
#include <vector>

#include "core/internal.h"
#include "index/list_cursor.h"

namespace simsel {

QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options) {
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  tau = internal::ClampTau(tau);
  AccessCounters& counters = result.counters;
  internal::ControlPoller poller(options.control, counters);

  // The cursors charge every list's pages and touch the buffer pool as a
  // disk-mode read does, but take the postings from the index's arrays,
  // not the posting store: decoding the store costs more than twice the
  // merge itself (EXPERIMENTS.md, "One posting order").
  std::vector<ListCursor> cursors;
  cursors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    cursors.emplace_back(index, q.tokens[i], /*use_skip=*/false, &counters,
                         options.buffer_pool);
  }

  // This thread's accumulators, one sum per set id and a bitmap of the ids
  // touched; both are all-zero between queries (the emit pass restores
  // them), grow with the collection and are never shrunk: 8 bytes and a bit
  // per set per querying thread, like internal::CandidateSlots. The lists
  // are drained in ascending query index, so each sum is built by
  // ScoreFromBits' additions: from 0.0, in ascending query index.
  thread_local std::vector<double> tls_sums;
  thread_local std::vector<uint64_t> tls_touched;
  const size_t num_sets = measure.collection().size();
  const size_t num_words = (num_sets + 63) / 64;
  if (tls_sums.size() < num_sets) {
    tls_sums.resize(num_sets, 0.0);
    tls_touched.resize(num_words, 0);
  }
  double* sums = tls_sums.data();
  uint64_t* touched = tls_touched.data();
  bool tripped = false;
  Status io_status;
  for (size_t i = 0; i < n && !tripped && io_status.ok(); ++i) {
    const double weight = q.weights[i];
    for (;;) {
      const PostingSpan span = cursors[i].NextSpan(cursors[i].size());
      if (span.empty()) break;
      for (size_t k = 0; k < span.count; ++k) {
        const uint32_t id = span.ids[k];
        sums[id] += weight;
        touched[id / 64] |= uint64_t{1} << (id % 64);
      }
      if ((tripped = poller.ShouldStop())) break;
    }
    io_status = cursors[i].status();
  }
  for (ListCursor& cursor : cursors) cursor.MarkComplete();

  // Emit the touched ids in id order, zeroing their sums and bits. A
  // tripped or failed query's sums are incomplete and only cleared.
  // `floor` sits a relative 1e-9 below τ·len(s)·len(q), far more than the
  // rounding of ScoreFromSum, so only a sum at or above it is scored.
  const bool exact = !tripped && io_status.ok();
  const double floor = internal::PruneThreshold(tau) * q.length;
  for (size_t word = 0; word < num_words; ++word) {
    uint64_t bits = touched[word];
    if (bits == 0) continue;
    touched[word] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const SetId id = static_cast<SetId>(word * 64 + __builtin_ctzll(bits));
      const double sum = sums[id];
      sums[id] = 0.0;
      if (!exact) continue;
      const float len = measure.set_length(id);
      if (sum < floor * static_cast<double>(len)) continue;
      const double score = measure.ScoreFromSum(q, sum, len);
      if (score >= tau) result.matches.push_back(Match{id, score});
    }
  }
  if (tripped) result.termination = poller.termination();
  counters.results = result.matches.size();
  if (!io_status.ok()) internal::FailResult(std::move(io_status), &result);
  return result;
}

}  // namespace simsel
