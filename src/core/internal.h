#ifndef SIMSEL_CORE_INTERNAL_H_
#define SIMSEL_CORE_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
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

/// Relative slack of the Theorem 1 window's lower bound. A set length is a
/// float, rounded from √Σidf² by up to 2^-24, so a subset of the query
/// scoring exactly τ can lie 2^-23 below τ·len(q); a 1e-9 slack dropped it.
/// The upper bound needs no more than kPruneSlack: a set's score is at most
/// len(q)/len(s) whatever its length's rounding.
constexpr double kLengthSlack = 0x1p-23 + kPruneSlack;

/// The Theorem 1 length window, widened by kLengthSlack below and
/// kPruneSlack above.
struct LengthWindow {
  float lo = 0.0f;
  float hi = std::numeric_limits<float>::infinity();

  bool Contains(float len) const { return len >= lo && len <= hi; }
};

inline LengthWindow ComputeLengthWindow(const PreparedQuery& q, double tau,
                                        bool enabled) {
  LengthWindow w;
  if (!enabled || tau <= 0.0) return w;
  w.lo = static_cast<float>(tau * q.length * (1.0 - kLengthSlack));
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

/// This thread's id → slot table for one query's candidates: one 64-bit
/// entry per set id, an epoch tag in the high half and the slot of the
/// id's record in the low half. Each query claims the table and starts a
/// new epoch, so entries left by earlier queries miss without a clear; only
/// an epoch wrap clears the tags. The table costs 8 bytes per set per
/// querying thread and is never shrunk.
///
/// A kernel claims the table for the lifetime of one CandidateSlots and must
/// not run another query on the same thread before it is destroyed.
/// Ids are not range-checked in release builds: in memory mode they come
/// from the index, and in disk mode PostingStore::ReadBlock rejects a block
/// holding an id at or past its id_limit().
class CandidateSlots {
 public:
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// Claims the table for ids in [0, num_sets).
  explicit CandidateSlots(size_t num_sets) : table_(ThreadTable()) {
    SIMSEL_DCHECK(!table_.in_use);
    table_.in_use = true;
    if (table_.entries.size() < num_sets) table_.entries.resize(num_sets, 0);
    if (++table_.epoch == 0) {
      std::fill(table_.entries.begin(), table_.entries.end(), 0);
      table_.epoch = 1;
    }
    entries_ = table_.entries.data();
    tag_ = uint64_t{table_.epoch} << 32;
    num_sets_ = num_sets;
  }
  ~CandidateSlots() { table_.in_use = false; }
  CandidateSlots(const CandidateSlots&) = delete;
  CandidateSlots& operator=(const CandidateSlots&) = delete;

  /// The slot set for `id` this query, or kNoSlot.
  uint32_t Find(uint32_t id) const {
    SIMSEL_DCHECK(id < num_sets_);
    const uint64_t e = entries_[id];
    return (e & kTagMask) == tag_ ? static_cast<uint32_t>(e) : kNoSlot;
  }
  void Set(uint32_t id, uint32_t slot) {
    SIMSEL_DCHECK(id < num_sets_);
    entries_[id] = tag_ | slot;
  }
  /// Tag 0 is never a live epoch, so a later Find of `id` misses.
  void Erase(uint32_t id) {
    SIMSEL_DCHECK(id < num_sets_);
    entries_[id] = 0;
  }
  /// Marks `id` seen; false if it already was this query.
  bool Mark(uint32_t id) {
    if (Find(id) != kNoSlot) return false;
    Set(id, 0);
    return true;
  }

 private:
  static constexpr uint64_t kTagMask = ~uint64_t{0} << 32;
  struct Table {
    std::vector<uint64_t> entries;
    uint32_t epoch = 0;
    bool in_use = false;  // the re-entrancy guard
  };
  static Table& ThreadTable() {
    thread_local Table table;
    return table;
  }

  Table& table_;
  uint64_t* entries_ = nullptr;
  uint64_t tag_ = 0;
  size_t num_sets_ = 0;
};

/// What a candidate scan does with the record it visits.
enum class ScanVerdict {
  kKeep,   // the record survives; continue
  kErase,  // drop the record; continue
  kStop,   // keep this record and every later one; end the scan
};

/// The NRA family's candidate set: trivially copyable `Record`s (each with
/// a `uint32_t id`) stored densely in insertion order, each followed by
/// `words_per_record` membership words in a parallel arena, and found by id
/// through the thread's CandidateSlots. Nothing is allocated per candidate.
template <class Record>
class CandidateSet {
  static_assert(std::is_trivially_copyable_v<Record>);

 public:
  CandidateSet(size_t num_sets, size_t words_per_record)
      : slots_(num_sets), w_(words_per_record) {}

  bool empty() const { return head_ == records_.size(); }

  uint32_t Find(uint32_t id) const { return slots_.Find(id); }
  Record& record(uint32_t slot) { return records_[slot]; }
  uint64_t* words(size_t slot) { return words_.data() + slot * w_; }

  /// Appends `r` with all-zero words; returns its slot.
  uint32_t Insert(const Record& r) {
    const uint32_t slot = static_cast<uint32_t>(records_.size());
    records_.push_back(r);
    words_.resize(words_.size() + w_, 0);
    slots_.Set(r.id, slot);
    return slot;
  }

  /// Visits the live records in insertion order; `visit(Record&, uint64_t*
  /// words)` returns a ScanVerdict. Erased ids miss in later Finds, as after
  /// `unordered_map::erase`. The survivors are compacted in place and keep
  /// their order.
  template <class Visit>
  void Scan(Visit&& visit) {
    const size_t end = records_.size();
    size_t live = 0;  // survivors so far, compacted into [0, live)
    size_t r = head_;
    for (; r < end; ++r) {
      const ScanVerdict v = visit(records_[r], words(r));
      if (v == ScanVerdict::kStop) break;
      if (v == ScanVerdict::kErase) {
        slots_.Erase(records_[r].id);
        continue;
      }
      Move(r, live++);
    }
    // A scan that stops before any survivor erased a prefix: step past it,
    // and slide the kept tail down only once that prefix outgrows it, so a
    // lazy scan costs the records it visits (amortized).
    if (live == 0 && 2 * r <= end) {
      head_ = r;
      return;
    }
    for (; r < end; ++r) Move(r, live++);
    records_.resize(live);
    words_.resize(live * w_);
    head_ = 0;
  }

  /// Calls fn(const Record&) for every live record, in insertion order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    for (size_t r = head_; r < records_.size(); ++r) fn(records_[r]);
  }

 private:
  void Move(size_t from, size_t to) {
    if (from == to) return;
    records_[to] = records_[from];
    std::copy_n(words(from), w_, words(to));
    slots_.Set(records_[to].id, static_cast<uint32_t>(to));
  }

  CandidateSlots slots_;
  size_t w_;
  std::vector<Record> records_;  // live in [head_, size())
  std::vector<uint64_t> words_;  // w_ per record, same index
  size_t head_ = 0;
};

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
