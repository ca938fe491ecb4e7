#include "core/nra.h"

#include <vector>

#include "common/bitset.h"
#include "core/internal.h"
#include "index/list_cursor.h"

namespace simsel {

namespace {

// A candidate's words are one bitmap: the lists the set has been seen in.
struct Candidate {
  uint32_t id;
  float len;
  double lb_num;  // Σ weights[i] over set bits (unnormalized)
};

}  // namespace

QueryResult NraSelect(const InvertedIndex& index, const IdfMeasure& measure,
                      const PreparedQuery& q, double tau,
                      const SelectOptions& options) {
  using internal::CandidateSlots;
  using internal::PruneThreshold;
  using internal::ScanVerdict;
  tau = internal::ClampTau(tau);
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  internal::ControlPoller poller(options.control, counters);
  const double prune_at = PruneThreshold(tau);

  std::vector<ListCursor> cursors;
  cursors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    cursors.emplace_back(index, q.tokens[i], /*use_skip=*/false, &counters,
                         options.buffer_pool,
                      options.posting_store);
    cursors.back().Next();
  }

  const size_t W = BitWords(n);
  internal::CandidateSet<Candidate> cands(measure.collection().size(), W);

  // Frontier contribution of list i (0 when exhausted).
  auto frontier_w = [&](size_t i) {
    if (cursors[i].AtEnd()) return 0.0;
    return q.weights[i] / (static_cast<double>(cursors[i].len()) * q.length);
  };

  double f = 0.0;
  auto recompute_f = [&]() {
    f = 0.0;
    for (size_t i = 0; i < n; ++i) f += frontier_w(i);
  };
  recompute_f();

  bool tripped = false;
  for (;;) {
    // Control poll once per round-robin pass.
    if (poller.ShouldStop()) break;
    bool all_done = true;
    for (size_t i = 0; i < n; ++i) {
      if (cursors[i].AtEnd()) continue;
      all_done = false;
      uint32_t id = cursors[i].id();
      float len = cursors[i].len();
      cursors[i].Next();
      uint32_t slot = cands.Find(id);
      if (slot == CandidateSlots::kNoSlot) {
        if (options.f_cutoff && f < prune_at) continue;
        slot = cands.Insert(Candidate{id, len, 0.0});
        ++counters.candidate_inserts;
      }
      uint64_t* bits = cands.words(slot);
      if (!TestBit(bits, i)) {
        SetBit(bits, i);
        cands.record(slot).lb_num += q.weights[i];
      }
    }
    recompute_f();

    const bool do_scan = !options.lazy_candidate_scan || f < prune_at ||
                         all_done;
    if (do_scan) {
      cands.Scan([&](Candidate& cand, uint64_t* bits) {
        ++counters.candidate_scan_steps;
        if ((counters.candidate_scan_steps & 1023u) == 0 &&
            poller.ShouldStop()) {
          tripped = true;
          return ScanVerdict::kStop;
        }
        // Upper bound: known contributions plus each missing list's
        // frontier contribution w_i(f_i) (0 once the list is exhausted).
        double ub_extra = 0.0;
        bool complete = true;
        for (size_t i = 0; i < n; ++i) {
          if (TestBit(bits, i) || cursors[i].AtEnd()) continue;
          complete = false;
          ub_extra += frontier_w(i);
        }
        double denom = static_cast<double>(cand.len) * q.length;
        double ub = cand.lb_num / denom + ub_extra;
        if (complete) {
          double score = measure.ScoreFromWords(q, bits, cand.len);
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

    if (all_done) break;
    if (f < prune_at && cands.empty()) break;
  }

  Status io_status;
  for (size_t i = 0; i < n; ++i) {
    cursors[i].MarkComplete();
    if (io_status.ok() && !cursors[i].ok()) io_status = cursors[i].status();
  }
  if (poller.termination() != Termination::kCompleted) {
    result.termination = poller.termination();
    std::vector<uint32_t> ids;
    cands.ForEach([&](const Candidate& cand) { ids.push_back(cand.id); });
    internal::VerifyPartialCandidates(measure, q, tau, ids, &result);
  }
  counters.results = result.matches.size();
  internal::SortMatches(&result.matches);
  if (!io_status.ok()) internal::FailResult(std::move(io_status), &result);
  return result;
}

}  // namespace simsel
