#include "core/inra.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/bitset.h"
#include "core/internal.h"
#include "index/list_cursor.h"
#include "obs/trace.h"

namespace simsel {

namespace {

// A candidate's words are two bitmaps of W words each: the lists the set
// has been seen in (present), then the lists it provably does not appear
// in (absent).
struct Candidate {
  uint32_t id;
  float len;
  double lb_num;       // Σ weights[i] over present bits
  double missing_num;  // Σ weights[i] over unresolved bits
};

}  // namespace

namespace internal {

// Shared engine for iNRA (Algorithm 2) and Hybrid (Algorithm 4). Hybrid
// adds the max_len(C) early-stop per list, implemented with the paper's
// partitioned candidate organization (one length-ordered queue per origin
// list + the candidate id table) so max_len(C) costs O(n) per check.
//
// Deviation from the paper, documented in DESIGN.md: the stop fires only
// when the frontier also exceeds λ₁ = Σ_j idf(q^j)² / (τ·len(q)) — the
// deepest length at which ANY set could still be admitted as a new
// candidate (Equation 2 with i = 1). Without this guard a list abandoned at
// a shallow frontier could not resolve candidates admitted later from other
// lists, breaking exactness. λ₁-capped stops keep Hybrid never reading more
// than iNRA while preserving correct results.
QueryResult NraFamilySelect(const InvertedIndex& index,
                            const IdfMeasure& measure, const PreparedQuery& q,
                            double tau, const SelectOptions& options,
                            bool hybrid) {
  tau = ClampTau(tau);
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  ControlPoller poller(options.control, counters);
  const double prune_at = PruneThreshold(tau);
  LengthWindow window;
  double total_weight = 0.0;
  double lambda1 = std::numeric_limits<double>::infinity();
  {
    obs::TraceScope bounds_span(options.trace, "bounds");
    bounds_span.SetItems(n);
    window = ComputeLengthWindow(q, tau, options.length_bounding);
    total_weight = TotalWeight(q);
    // ClampTau guarantees prune_at > 0, so λ₁ is always defined.
    lambda1 = total_weight / (prune_at * q.length);
  }

  // Spans never exceed the hi bound, so exhaustion checks and span clipping
  // share one float threshold (window.hi is +inf when bounding is off).
  const float hi_bound =
      options.length_bounding ? window.hi : ListCursor::kNoLengthBound;

  std::vector<ListCursor> cursors;
  std::vector<char> done(n, 0);
  cursors.reserve(n);
  {
    obs::TraceScope open_span(options.trace, "open_lists");
    open_span.SetItems(n);
    for (size_t i = 0; i < n; ++i) {
      cursors.emplace_back(index, q.tokens[i], options.use_skip_index,
                           &counters, options.buffer_pool,
                           options.posting_store);
      if (options.length_bounding) {
        cursors.back().SeekSpanStart(window.lo);
      }
    }
  }

  auto check_done = [&](size_t i) {
    if (done[i]) return true;
    if (cursors[i].FrontierPast(hi_bound)) {
      cursors[i].MarkComplete();
      done[i] = 1;
      return true;
    }
    return false;
  };

  const size_t W = BitWords(n);
  CandidateSet<Candidate> cands(measure.collection().size(), 2 * W);
  // Hybrid's partitioned candidate set: ids in insertion (== ascending
  // length) order per origin list; stale entries removed lazily.
  std::vector<std::vector<uint32_t>> origin(hybrid ? n : 0);

  auto max_len_c = [&]() {
    double max_len = -std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < n; ++j) {
      std::vector<uint32_t>& ids = origin[j];
      uint32_t slot = CandidateSlots::kNoSlot;
      while (!ids.empty() &&
             (slot = cands.Find(ids.back())) == CandidateSlots::kNoSlot) {
        ids.pop_back();
      }
      if (!ids.empty()) {
        max_len = std::max(max_len,
                           static_cast<double>(cands.record(slot).len));
      }
    }
    return max_len;
  };

  auto frontier_w = [&](size_t i) {
    if (done[i]) return 0.0;
    const float frontier = cursors[i].FrontierLen();
    if (std::isinf(frontier)) return 0.0;
    return q.weights[i] / (static_cast<double>(frontier) * q.length);
  };

  double f = 0.0;
  auto recompute_f = [&]() {
    f = 0.0;
    for (size_t i = 0; i < n; ++i) f += frontier_w(i);
  };
  recompute_f();

  obs::TraceScope rounds_span(options.trace, "rounds");
  const size_t bp = index.block_postings();
  uint64_t rounds = 0;
  bool tripped = false;
  for (;;) {
    ++rounds;
    bool all_done = true;
    for (size_t i = 0; i < n; ++i) {
      if (check_done(i)) continue;
      all_done = false;
      // Control poll, once per span fetch (off the per-posting path).
      if (poller.ShouldStop()) {
        tripped = true;
        break;
      }
      // One block-sized span per list per round (the batched form of the
      // paper's one-posting round-robin). f is recomputed per round either
      // way, so admission within the batch uses the same — conservative —
      // frontier sum the per-posting rounds would have started from.
      float span_hi = hi_bound;
      if (hybrid) {
        // Algorithm 4's stop depth, applied as a span clip so the batched
        // walk abandons at the same posting the one-at-a-time walk would:
        // nothing deeper than max(λ₁, max_len(C)) can admit or resolve.
        const double cap = std::max(lambda1, max_len_c());
        if (std::isfinite(cap) && cap < static_cast<double>(span_hi)) {
          float cap_f = static_cast<float>(cap);
          if (static_cast<double>(cap_f) > cap) {
            cap_f = std::nextafterf(cap_f,
                                    -std::numeric_limits<float>::infinity());
          }
          span_hi = std::min(span_hi, cap_f);
        }
      }
      PostingSpan span = cursors[i].NextSpan(bp, span_hi);
      for (size_t s = 0; s < span.count; ++s) {
        const uint32_t id = span.ids[s];
        const float len = span.lens[s];
        uint32_t slot = cands.Find(id);
        if (slot == CandidateSlots::kNoSlot) {
          bool admit = !(options.f_cutoff && f < prune_at);
          if (admit && options.magnitude_bound) {
            // Property 2: best case assumes the set appears in every list.
            double best =
                total_weight / (static_cast<double>(len) * q.length);
            if (best < prune_at) {
              ++counters.candidate_prunes;
              admit = false;
            }
          }
          if (admit) {
            slot = cands.Insert(Candidate{id, len, 0.0, total_weight});
            ++counters.candidate_inserts;
            if (hybrid) origin[i].push_back(id);
          }
        }
        if (slot != CandidateSlots::kNoSlot) {
          uint64_t* present = cands.words(slot);
          if (!TestBit(present, i) && !TestBit(present + W, i)) {
            SetBit(present, i);
            Candidate& cand = cands.record(slot);
            cand.lb_num += q.weights[i];
            cand.missing_num -= q.weights[i];
          }
        }
      }
      check_done(i);
      if (hybrid && !done[i]) {
        // Algorithm 4: abandon the list once its frontier is past every
        // candidate that could need resolution here and past the deepest
        // admissible new candidate (the λ₁ guard).
        double frontier = cursors[i].FrontierLen();
        if (frontier > lambda1 && frontier > max_len_c()) {
          cursors[i].MarkComplete();
          done[i] = 1;
        }
      }
    }
    if (tripped) break;
    recompute_f();

    const bool do_scan =
        !options.lazy_candidate_scan || f < prune_at || all_done;
    if (do_scan) {
      cands.Scan([&](Candidate& cand, uint64_t* present) {
        ++counters.candidate_scan_steps;
        // Control poll once per scan batch: the sweep itself can dominate
        // on huge candidate sets.
        if ((counters.candidate_scan_steps & 1023u) == 0 &&
            poller.ShouldStop()) {
          tripped = true;
          return ScanVerdict::kStop;
        }
        uint64_t* absent = present + W;
        // Resolve absences: exhausted/abandoned lists, and Order
        // Preservation against each frontier.
        double frontier_extra = 0.0;  // only used without magnitude bound
        bool complete = true;
        for (size_t i = 0; i < n; ++i) {
          if (TestBit(present, i) || TestBit(absent, i)) continue;
          bool is_absent = done[i];
          if (!is_absent && options.order_preservation &&
              cand.len < cursors[i].FrontierLen()) {
            is_absent = true;  // Property 1: it would have appeared already
          }
          if (is_absent) {
            SetBit(absent, i);
            cand.missing_num -= q.weights[i];
            continue;
          }
          complete = false;
          frontier_extra += frontier_w(i);
        }
        double denom = static_cast<double>(cand.len) * q.length;
        double ub = options.magnitude_bound
                        ? (cand.lb_num + cand.missing_num) / denom
                        : cand.lb_num / denom + frontier_extra;
        if (complete) {
          double score = measure.ScoreFromWords(q, present, cand.len);
          if (score >= tau) result.matches.push_back(Match{cand.id, score});
          return ScanVerdict::kErase;
        }
        if (ub < prune_at) {
          ++counters.candidate_prunes;
          return ScanVerdict::kErase;
        }
        if (options.lazy_candidate_scan && !all_done) {
          return ScanVerdict::kStop;
        }
        return ScanVerdict::kKeep;
      });
    }
    if (tripped) break;

    if (all_done && cands.empty()) break;
    if (!all_done && f < prune_at && cands.empty()) break;
  }
  rounds_span.SetItems(rounds);

  Status io_status;
  for (size_t i = 0; i < n; ++i) {
    cursors[i].MarkComplete();
    if (io_status.ok() && !cursors[i].ok()) io_status = cursors[i].status();
  }
  if (tripped) {
    // The matches reported so far were fully resolved (exact scores); the
    // surviving candidates have incomplete bitmaps, so each gets one exact
    // verification before being reported.
    result.termination = poller.termination();
    std::vector<uint32_t> ids;
    cands.ForEach([&](const Candidate& cand) { ids.push_back(cand.id); });
    VerifyPartialCandidates(measure, q, tau, ids, &result);
  }
  counters.results = result.matches.size();
  internal::SortMatches(&result.matches);
  if (!io_status.ok()) FailResult(std::move(io_status), &result);
  return result;
}

}  // namespace internal

QueryResult InraSelect(const InvertedIndex& index, const IdfMeasure& measure,
                       const PreparedQuery& q, double tau,
                       const SelectOptions& options) {
  return internal::NraFamilySelect(index, measure, q, tau, options,
                                   /*hybrid=*/false);
}

}  // namespace simsel
