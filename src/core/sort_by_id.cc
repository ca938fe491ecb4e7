#include "core/sort_by_id.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "core/internal.h"

namespace simsel {

namespace internal {

namespace {

constexpr uint32_t kWindowIds = 4096;
constexpr uint32_t kWindowWords = kWindowIds / 64;
constexpr uint64_t kNoHead = std::numeric_limits<uint64_t>::max();

// One window's score accumulators, indexed by id - window base. `touched`
// marks the live slots. Between windows every sum is 0.0 and `touched` is
// all-zero (the emit pass restores both), so a posting only adds its weight
// and each sum is built by ScoreFromBits' additions: from 0.0, in ascending
// query index.
struct WindowAccumulator {
  double sum[kWindowIds];
  float len[kWindowIds];
  uint64_t touched[kWindowWords];
};

// Pages whose first posting lies in the position range [begin, end).
inline uint64_t PagesStarting(size_t begin, size_t end, size_t per_page) {
  return (end + per_page - 1) / per_page - (begin + per_page - 1) / per_page;
}

}  // namespace

void SortByIdMergeRange(const InvertedIndex& index, const IdfMeasure& measure,
                        const PreparedQuery& q, double tau, uint64_t lo_id,
                        uint64_t hi_id, const QueryControl& control,
                        QueryResult* out) {
  struct ListSlice {
    const uint32_t* ids;
    const float* lens;
    size_t pos;
    size_t end;
  };
  const size_t n = q.tokens.size();
  const size_t per_page = index.entries_per_page();
  AccessCounters& counters = out->counters;
  ControlPoller poller(control, counters);
  // Without a control every slice is drained, so the accounting is known up
  // front. With an active control the charges move to the list segments so
  // a budget poll (and a tripped result) sees the work actually done.
  const bool metered = control.active();

  std::vector<ListSlice> lists(n);
  uint64_t head = kNoHead;  // smallest unread id over all slices
  for (size_t i = 0; i < n; ++i) {
    const uint32_t* ids = index.IdIds(q.tokens[i]);
    const size_t size = index.ListSize(q.tokens[i]);
    const size_t begin = std::lower_bound(ids, ids + size, lo_id) - ids;
    const size_t end = std::lower_bound(ids + begin, ids + size, hi_id) - ids;
    lists[i] = ListSlice{ids, index.IdLens(q.tokens[i]), begin, end};
    counters.elements_total += end - begin;
    if (!metered) {
      counters.elements_read += end - begin;
      counters.seq_page_reads += PagesStarting(begin, end, per_page);
    }
    if (begin < end) head = std::min<uint64_t>(head, ids[begin]);
  }

  thread_local WindowAccumulator tls_acc;
  WindowAccumulator& acc = tls_acc;
  bool tripped = false;
  while (head != kNoHead && !(tripped = poller.ShouldStop())) {
    const uint64_t base = head - head % kWindowIds;
    const uint64_t limit = base + kWindowIds;
    uint32_t lo_word = kWindowWords;
    uint32_t hi_word = 0;
    head = kNoHead;
    for (size_t i = 0; i < n; ++i) {
      // Locals, not ListSlice fields: the accumulator's uint64_t stores may
      // alias size_t members and would force a reload per posting.
      const uint32_t* ids = lists[i].ids;
      const float* lens = lists[i].lens;
      const size_t first = lists[i].pos;
      const size_t end = lists[i].end;
      const double weight = q.weights[i];
      size_t p = first;
      for (; p < end && ids[p] < limit; ++p) {
        const uint32_t slot = static_cast<uint32_t>(ids[p] - base);
        acc.touched[slot / 64] |= uint64_t{1} << (slot % 64);
        acc.sum[slot] += weight;
        acc.len[slot] = lens[p];
      }
      lists[i].pos = p;
      if (p < end) head = std::min<uint64_t>(head, ids[p]);
      if (p == first) continue;
      lo_word = std::min<uint32_t>(lo_word, (ids[first] - base) / 64);
      hi_word = std::max<uint32_t>(hi_word, (ids[p - 1] - base) / 64);
      if (metered) {
        counters.elements_read += p - first;
        counters.seq_page_reads += PagesStarting(first, p, per_page);
        if ((tripped = poller.ShouldStop())) break;
      }
    }
    // Emit the touched slots in id order, leaving the bitmap clear and the
    // sums 0.0 for the next window. A tripped window's sums are incomplete
    // and are dropped.
    for (uint32_t w = lo_word; w <= hi_word; ++w) {
      uint64_t bits = acc.touched[w];
      acc.touched[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const uint32_t slot = w * 64 + __builtin_ctzll(bits);
        const double sum = acc.sum[slot];
        acc.sum[slot] = 0.0;
        if (tripped) continue;
        const double score = measure.ScoreFromSum(q, sum, acc.len[slot]);
        if (score >= tau) {
          out->matches.push_back(Match{static_cast<SetId>(base + slot), score});
        }
      }
    }
    if (tripped) break;
  }
  if (tripped) {
    out->termination = poller.termination();
    for (const ListSlice& ls : lists) {
      counters.elements_skipped += ls.end - ls.pos;
    }
  }
}

}  // namespace internal

QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options) {
  QueryResult result;
  if (q.tokens.empty()) return result;
  SIMSEL_CHECK_MSG(index.options().build_id_lists,
                   "sort-by-id needs an index built with build_id_lists");
  internal::SortByIdMergeRange(
      index, measure, q, internal::ClampTau(tau), 0,
      uint64_t{std::numeric_limits<uint32_t>::max()} + 1, options.control,
      &result);
  result.counters.results = result.matches.size();
  return result;
}

}  // namespace simsel
