#include "core/ta.h"

#include <algorithm>
#include <vector>

#include "common/bitset.h"
#include "core/internal.h"
#include "index/list_cursor.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"

namespace simsel {

namespace internal {

namespace {

// Whether set `id` of length `len`, seen for the first time, is in list `t`,
// whose cursor is `cursor`. Every posting the cursor has passed was marked
// seen, so by Order Preservation a set that sorts before the cursor's
// current posting is not in the list, and one equal to it is: only a set
// still ahead of the cursor needs the index searched.
bool InList(const ListCursor& cursor, const InvertedIndex& index, TokenId t,
            float len, uint32_t id) {
  if (cursor.AtEnd()) return false;
  if (cursor.positioned() &&
      (cursor.len() > len || (cursor.len() == len && cursor.id() >= id))) {
    return cursor.len() == len && cursor.id() == id;
  }
  return index.Contains(t, len, id);
}

}  // namespace

QueryResult TaEngineSelect(const InvertedIndex& index,
                           const IdfMeasure& measure, const PreparedQuery& q,
                           double tau, const SelectOptions& options,
                           bool improved) {
  tau = ClampTau(tau);
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  ControlPoller poller(options.control, counters);

  const bool use_lb = improved && options.length_bounding;
  const bool use_skip = improved && options.use_skip_index;
  const bool use_mb = improved && options.magnitude_bound;
  LengthWindow window;
  const double prune_at = PruneThreshold(tau);
  double total_weight = 0.0;
  {
    obs::TraceScope bounds_span(options.trace, "bounds");
    bounds_span.SetItems(n);
    window = ComputeLengthWindow(q, tau, use_lb);
    total_weight = TotalWeight(q);
  }

  std::vector<ListCursor> cursors;
  cursors.reserve(n);
  {
    obs::TraceScope open_span(options.trace, "open_lists");
    open_span.SetItems(n);
    for (size_t i = 0; i < n; ++i) {
      cursors.emplace_back(index, q.tokens[i], use_skip, &counters,
                           options.buffer_pool,
                           options.posting_store);
      if (use_lb) {
        cursors.back().SeekLengthGE(window.lo);
      } else {
        cursors.back().Next();
      }
    }
  }

  CandidateSlots seen(measure.collection().size());
  // One probe bitmap, reset for each new set.
  std::vector<uint64_t> bits(BitWords(n));
  std::vector<char> done(n, 0);

  auto list_done = [&](size_t i) {
    if (done[i]) return true;
    if (cursors[i].AtEnd() || (use_lb && cursors[i].len() > window.hi)) {
      cursors[i].MarkComplete();
      done[i] = 1;
      return true;
    }
    return false;
  };

  obs::TraceScope rounds_span(options.trace, "rounds");
  uint64_t rounds = 0;
  for (;;) {
    ++rounds;
    // Control poll once per round (n postings + their probes): every match
    // reported so far is fully resolved, so a trip needs no extra
    // verification.
    if (poller.ShouldStop()) {
      result.termination = poller.termination();
      break;
    }
    bool all_done = true;
    for (size_t i = 0; i < n; ++i) {
      if (list_done(i)) continue;
      all_done = false;
      uint32_t id = cursors[i].id();
      float len = cursors[i].len();
      cursors[i].Next();
      if (!seen.Mark(id)) continue;
      if (use_mb) {
        // Property 2: best case assumes membership in every list.
        double best = total_weight / (static_cast<double>(len) * q.length);
        if (best < prune_at) {
          ++counters.candidate_prunes;
          continue;
        }
      }
      // Complete the score with one random-access probe per other list.
      std::fill(bits.begin(), bits.end(), 0);
      SetBit(bits.data(), i);
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const TokenId t = q.tokens[j];
        // An empty list holds nothing (shard indexes over a global
        // dictionary hit this routinely): no probe is issued.
        if (index.ListSize(t) == 0) continue;
        ++counters.hash_probes;
        ++counters.rand_page_reads;
        if (InList(cursors[j], index, t, len, id)) SetBit(bits.data(), j);
        if (options.buffer_pool != nullptr) {
          // The landing block's page, keyed as the list's cursors key it.
          bool hit = options.buffer_pool->Touch(BufferPool::PageKey(
              t, index.ProbeBlockFirst(t, len, id) /
                     index.entries_per_page()));
          if (hit) {
            ++counters.pool_hits;
          } else {
            ++counters.pool_misses;
          }
        }
      }
      double score = measure.ScoreFromWords(q, bits.data(), len);
      if (score >= tau) result.matches.push_back(Match{id, score});
    }
    if (all_done) break;
    // Frontier bound: the best score any unseen set could still achieve.
    double f = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (done[i] || cursors[i].AtEnd()) continue;
      f += q.weights[i] / (static_cast<double>(cursors[i].len()) * q.length);
    }
    if (f < prune_at) break;
  }
  rounds_span.SetItems(rounds);

  Status io_status;
  for (size_t i = 0; i < n; ++i) {
    cursors[i].MarkComplete();
    if (io_status.ok() && !cursors[i].ok()) io_status = cursors[i].status();
  }
  counters.results = result.matches.size();
  SortMatches(&result.matches);
  if (!io_status.ok()) FailResult(std::move(io_status), &result);
  return result;
}

}  // namespace internal

QueryResult TaSelect(const InvertedIndex& index, const IdfMeasure& measure,
                     const PreparedQuery& q, double tau) {
  return internal::TaEngineSelect(index, measure, q, tau, SelectOptions{},
                                  /*improved=*/false);
}

QueryResult ItaSelect(const InvertedIndex& index, const IdfMeasure& measure,
                      const PreparedQuery& q, double tau,
                      const SelectOptions& options) {
  return internal::TaEngineSelect(index, measure, q, tau, options,
                                  /*improved=*/true);
}

}  // namespace simsel
