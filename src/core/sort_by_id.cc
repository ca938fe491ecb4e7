#include "core/sort_by_id.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "core/internal.h"

namespace simsel {

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

struct ListSlice {
  const uint32_t* ids;
  const float* lens;
  size_t pos;
  size_t end;
};

}  // namespace

QueryResult SortByIdSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options) {
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  SIMSEL_CHECK_MSG(index.options().build_id_lists,
                   "sort-by-id needs an index built with build_id_lists");
  tau = internal::ClampTau(tau);
  const size_t per_page = index.entries_per_page();
  AccessCounters& counters = result.counters;
  internal::ControlPoller poller(options.control, counters);
  // Without a control every list is drained, so the accounting is known up
  // front. With an active control the charges move to the list segments so
  // a budget poll (and a tripped result) sees the work actually done.
  const bool metered = options.control.active();

  std::vector<ListSlice> lists(n);
  uint64_t head = kNoHead;  // smallest unread id over all lists
  for (size_t i = 0; i < n; ++i) {
    const size_t size = index.ListSize(q.tokens[i]);
    lists[i] = ListSlice{index.IdIds(q.tokens[i]), index.IdLens(q.tokens[i]),
                         0, size};
    counters.elements_total += size;
    if (!metered) {
      counters.elements_read += size;
      counters.seq_page_reads += PagesStarting(0, size, per_page);
    }
    if (size > 0) head = std::min<uint64_t>(head, lists[i].ids[0]);
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
          result.matches.push_back(
              Match{static_cast<SetId>(base + slot), score});
        }
      }
    }
    if (tripped) break;
  }
  if (tripped) {
    result.termination = poller.termination();
    for (const ListSlice& ls : lists) {
      counters.elements_skipped += ls.end - ls.pos;
    }
  }
  result.counters.results = result.matches.size();
  return result;
}

}  // namespace simsel
