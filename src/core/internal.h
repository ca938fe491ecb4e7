#ifndef SIMSEL_CORE_INTERNAL_H_
#define SIMSEL_CORE_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel::internal {

/// Relative slack applied to prune/stop decisions so floating-point rounding
/// can never discard a set whose true score equals the threshold. Looser
/// pruning only costs a few extra element reads; the final report decision
/// always uses the canonical exact score.
constexpr double kPruneSlack = 1e-9;

/// Smallest threshold the algorithms run at. Every public Select entry
/// clamps τ up to at least kMinTau (see ClampTau), so internal threshold
/// arithmetic — the SF/Hybrid cutoff λ = Σκ/(τ·len(q)) in particular — never
/// divides by zero.
constexpr double kMinTau = 1e-6;

/// Public-entry τ validation, applied identically by every selection
/// algorithm (SF, iNRA, Hybrid, TA/iTA, NRA, sort-by-id, linear scan, SQL
/// baseline, prefix filter): τ ≤ 0 or any non-finite value clamps to
/// kMinTau — the query matches every set sharing at least one weighted
/// token, the closest well-defined reading of "no threshold". Only the low
/// end is clamped: the upper range is measure-dependent (IDF similarity
/// never exceeds 1, so τ > 1 simply yields no matches, but unnormalized
/// measures like BM25 run at τ well above 1), so a high τ passes through
/// untouched and the score comparisons decide. The CLI front end is
/// stricter and rejects out-of-range τ with a usage error; the library
/// clamps so a serving path never crashes on bad input.
inline double ClampTau(double tau) {
  return (!std::isfinite(tau) || tau < kMinTau) ? kMinTau : tau;
}

/// Threshold used for discarding by upper bound: prune only when
/// upper < tau * (1 - slack).
inline double PruneThreshold(double tau) { return tau * (1.0 - kPruneSlack); }

/// The Theorem 1 length window, slightly widened by the same slack.
struct LengthWindow {
  float lo = 0.0f;
  float hi = std::numeric_limits<float>::infinity();

  bool Contains(float len) const { return len >= lo && len <= hi; }
};

inline LengthWindow ComputeLengthWindow(const PreparedQuery& q, double tau,
                                        bool enabled) {
  LengthWindow w;
  if (!enabled || tau <= 0.0) return w;
  w.lo = static_cast<float>(tau * q.length * (1.0 - kPruneSlack));
  w.hi = static_cast<float>(q.length / tau * (1.0 + kPruneSlack));
  return w;
}

/// Σ_j q.weights[j] — the numerator of a full match; len(q)² when every
/// query token is in the dictionary.
inline double TotalWeight(const PreparedQuery& q) {
  double sum = 0.0;
  for (double w : q.weights) sum += w;
  return sum;
}

/// Sorts matches by ascending id (the canonical result order).
inline void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) { return a.id < b.id; });
}

/// Sticky poll wrapper over a QueryControl. Algorithms construct one per
/// query and call ShouldStop once per posting span / round / candidate-scan
/// batch — never per posting — so an inactive control costs one predictable
/// branch and an active one costs a couple of relaxed loads (the clock is
/// read only when a deadline is set). Once tripped it stays tripped; the
/// trip order (cancel, then budget, then deadline) is fixed so tests see a
/// deterministic verdict when several limits are crossed at once.
class ControlPoller {
 public:
  ControlPoller(const QueryControl& control, const AccessCounters& counters)
      : control_(control), counters_(counters), active_(control.active()) {}

  bool ShouldStop() {
    if (!active_) return false;
    if (termination_ != Termination::kCompleted) return true;
    if ((control_.cancel != nullptr &&
         control_.cancel->load(std::memory_order_relaxed)) ||
        (control_.cancel2 != nullptr &&
         control_.cancel2->load(std::memory_order_relaxed))) {
      termination_ = Termination::kCancelled;
    } else if (control_.max_elements_read > 0 &&
               counters_.elements_read + counters_.rows_scanned >
                   control_.max_elements_read) {
      termination_ = Termination::kBudget;
    } else if (control_.has_deadline() &&
               QueryControl::Clock::now() >= control_.deadline) {
      termination_ = Termination::kDeadline;
    }
    return termination_ != Termination::kCompleted;
  }

  Termination termination() const { return termination_; }

 private:
  const QueryControl& control_;
  const AccessCounters& counters_;
  const bool active_;
  Termination termination_ = Termination::kCompleted;
};

/// Partial-result epilogue for a tripped query: exact-verifies the in-flight
/// candidate ids (one canonical measure.Score record fetch each, charged to
/// rows_scanned) and reports those reaching τ. Candidate bitmaps are
/// incomplete at a trip — lists not yet walked would understate the score —
/// so the canonical score is the only sound way to report them; the cost is
/// bounded by the candidates already admitted. The resulting matches are
/// always a subset of the complete answer with bit-identical scores.
inline void VerifyPartialCandidates(const SimilarityMeasure& measure,
                                    const PreparedQuery& q, double tau,
                                    const std::vector<uint32_t>& ids,
                                    QueryResult* result) {
  for (uint32_t id : ids) {
    ++result->counters.rows_scanned;
    double score = measure.Score(q, id);
    if (score >= tau) result->matches.push_back(Match{id, score});
  }
}

/// Marks `result` failed: matches are cleared (a lost read means they can no
/// longer be trusted), the status is recorded, counters stay (they reflect
/// work actually done).
inline void FailResult(Status status, QueryResult* result) {
  result->matches.clear();
  result->counters.results = 0;
  result->status = std::move(status);
}

}  // namespace simsel::internal

#endif  // SIMSEL_CORE_INTERNAL_H_
