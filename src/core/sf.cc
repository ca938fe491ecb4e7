#include "core/sf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/bitset.h"
#include "core/internal.h"
#include "index/list_cursor.h"
#include "obs/trace.h"

namespace simsel {

namespace {

using internal::LengthWindow;

// Trivially copyable; the lists known to contain the set live in a parallel
// word arena (see ShortestFirst), so moving a candidate moves no heap.
struct Candidate {
  uint32_t id;
  float len;
  // Optimistic score in the bound's units: the bounds of every list not yet
  // proven absent (Magnitude Boundedness applied incrementally).
  double potential;
};
static_assert(std::is_trivially_copyable_v<Candidate>);

// Candidates and by-length postings share the (len, id) sort order.
bool CandBefore(const Candidate& c, float len, uint32_t id) {
  if (c.len != len) return c.len < len;
  return c.id < id;
}

// Bound policies: everything Shortest-First needs from the measure.
//  - OrderKey(i): lists are consumed in decreasing key order; SetOrder
//    receives that order before the first list.
//  - window(): the Length Boundedness window the scans start and end in.
//  - Depth(k): λ_k, the deepest length at which a set first seen in round k
//    could still reach τ, assuming it appears in this and every later list.
//  - Start(k, len): the potential of a set first seen in round k;
//    Absent(list, len): what it loses when `list` proves it absent;
//    Viable(potential, len): whether that potential can still reach τ.
//  - kScoresFromLists: complete candidates are scored from their membership
//    bits; otherwise every survivor is verified against the base table.

// IDF and TF/IDF: list i contributes at most κ_i / (len(s)·len(q)), with κ_i
// fixed per list, so the potential is a numerator and λ_k is closed-form.
class NumeratorBound {
 public:
  NumeratorBound(const PreparedQuery& q, double tau, std::vector<double> kappa,
                 LengthWindow window)
      : q_length_(q.length),
        prune_at_(internal::PruneThreshold(tau)),
        kappa_(std::move(kappa)),
        window_(window) {}

  double OrderKey(size_t i) const { return kappa_[i]; }
  void SetOrder(const std::vector<size_t>& perm) {
    // suffix_[k] = Σ_{j >= k} κ[perm[j]].
    suffix_.assign(perm.size() + 1, 0.0);
    for (size_t k = perm.size(); k-- > 0;) {
      suffix_[k] = suffix_[k + 1] + kappa_[perm[k]];
    }
  }
  const LengthWindow& window() const { return window_; }
  // Equation 2. ClampTau guarantees prune_at > 0, so the division is always
  // defined; the slacked threshold is Viable's, so admission and scan depth
  // agree exactly across lists.
  double Depth(size_t k) const { return suffix_[k] / (prune_at_ * q_length_); }
  double Start(size_t k, float /*len*/) const { return suffix_[k]; }
  double Absent(size_t list, float /*len*/) const { return kappa_[list]; }
  bool Viable(double potential, float len) const {
    return potential / (static_cast<double>(len) * q_length_) >= prune_at_;
  }

 private:
  double q_length_;
  double prune_at_;
  std::vector<double> kappa_;
  std::vector<double> suffix_;
  LengthWindow window_;
};

// IDF: κ_i = idf(q^i)², so decreasing κ is decreasing idf, the paper's
// order, and survivors are scored exactly from their bits.
struct IdfBound : NumeratorBound {
  static constexpr bool kScoresFromLists = true;
  IdfBound(const IdfMeasure& /*measure*/, const PreparedQuery& q, double tau,
           bool length_bounding)
      : NumeratorBound(
            q, tau, q.weights,
            internal::ComputeLengthWindow(q, tau, length_bounding)) {}
};

// TF/IDF: each bound boosted by the token's maximum tf over the database.
struct TfIdfBound : NumeratorBound {
  static constexpr bool kScoresFromLists = false;
  TfIdfBound(const TfIdfMeasure& measure, const PreparedQuery& q, double tau,
             bool length_bounding)
      : NumeratorBound(q, tau, Kappa(measure, q),
                       Window(measure, q, tau, length_bounding)) {}

  // κ_i = tf(q,i)·mtf(q^i)·idf(q^i)², the largest numerator contribution
  // list i can make to any set (q.weights[i] = tf(q,i)·idf already).
  static std::vector<double> Kappa(const TfIdfMeasure& measure,
                                   const PreparedQuery& q) {
    std::vector<double> kappa(q.tokens.size());
    for (size_t i = 0; i < kappa.size(); ++i) {
      kappa[i] = q.weights[i] * measure.max_tf(q.tokens[i]) *
                 measure.idf(q.tokens[i]);
    }
    return kappa;
  }

  // Boosted Theorem 1: τ·len(q)/mtfq <= ||s|| <= max_i mtf(q^i)·len(q)/τ.
  static LengthWindow Window(const TfIdfMeasure& measure,
                             const PreparedQuery& q, double tau,
                             bool enabled) {
    LengthWindow w;
    if (!enabled) return w;
    uint32_t mtfq = 1;
    uint32_t max_db_tf = 1;
    for (size_t i = 0; i < q.tokens.size(); ++i) {
      mtfq = std::max(mtfq, q.tfs[i]);
      max_db_tf = std::max(max_db_tf, measure.max_tf(q.tokens[i]));
    }
    w.lo = static_cast<float>(tau * q.length / mtfq *
                              (1.0 - internal::kLengthSlack));
    w.hi = static_cast<float>(max_db_tf * q.length / tau *
                              (1.0 + internal::kPruneSlack));
    return w;
  }
};

// BM25: not length-normalized, so there is no window; the per-list bound
// decreases in the document length |s|, the postings' sort key.
class Bm25Bound {
 public:
  static constexpr bool kScoresFromLists = false;
  Bm25Bound(const Bm25Measure& measure, const PreparedQuery& q, double tau,
            bool /*length_bounding*/)
      : measure_(measure), q_(q), prune_at_(internal::PruneThreshold(tau)) {}

  // The bound at the average document length. The order only affects
  // efficiency; the bounds below are exact per candidate.
  double OrderKey(size_t i) const {
    return measure_.ContributionBound(q_, i, measure_.avgdl());
  }
  void SetOrder(const std::vector<size_t>& perm) { perm_ = perm; }
  const LengthWindow& window() const { return window_; }
  // SuffixAt(k, ·) decreases in |s|; bisect for the largest length
  // still reaching the threshold, returning the upper end so the scan never
  // stops short of an admissible candidate.
  double Depth(size_t k) const {
    double lo = 0.0, hi = 1.0;
    if (SuffixAt(k, lo) < prune_at_) return 0.0;
    while (SuffixAt(k, hi) >= prune_at_ && hi < 1e15) hi *= 2.0;
    if (hi >= 1e15) return std::numeric_limits<double>::infinity();
    for (int iter = 0; iter < 64; ++iter) {
      double mid = 0.5 * (lo + hi);
      if (SuffixAt(k, mid) >= prune_at_) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  }
  double Start(size_t k, float len) const { return SuffixAt(k, len); }
  double Absent(size_t list, float len) const {
    return measure_.ContributionBound(q_, list, len);
  }
  bool Viable(double potential, float /*len*/) const {
    return potential >= prune_at_;
  }

 private:
  double SuffixAt(size_t k, double d) const {
    double sum = 0.0;
    for (size_t j = k; j < perm_.size(); ++j) {
      sum += measure_.ContributionBound(q_, perm_[j], d);
    }
    return sum;
  }

  const Bm25Measure& measure_;
  const PreparedQuery& q_;
  double prune_at_;
  std::vector<size_t> perm_;
  LengthWindow window_;
};

// Algorithm 3 over any bound policy: one span-at-a-time merge of each list
// against the (len, id)-sorted candidates, in the bound's list order.
template <class Bound, class Measure>
QueryResult ShortestFirst(const InvertedIndex& index, const Measure& measure,
                          const PreparedQuery& q, double tau,
                          const SelectOptions& options) {
  tau = internal::ClampTau(tau);
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  internal::ControlPoller poller(options.control, counters);
  Status io_status;
  Bound bound(measure, q, tau, options.length_bounding);
  std::vector<size_t> perm(n);
  {
    obs::TraceScope bounds_span(options.trace, "bounds");
    std::vector<double> key(n);
    for (size_t i = 0; i < n; ++i) key[i] = bound.OrderKey(i);
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](size_t a, size_t b) { return key[a] > key[b]; });
    bound.SetOrder(perm);
  }
  const LengthWindow& window = bound.window();

  std::vector<Candidate> cands;  // sorted by (len, id)
  std::vector<Candidate> next;
  // Membership words, W per candidate at the candidate's index: bit i set
  // iff list i contains the set. Only a bound that scores from the lists
  // keeps them.
  const size_t W = Bound::kScoresFromLists ? BitWords(n) : 0;
  std::vector<uint64_t> cand_words;
  std::vector<uint64_t> next_words;
  // Appends cands[from] to next; returns its words there.
  auto keep = [&](size_t from) {
    next.push_back(cands[from]);
    const uint64_t* src = cand_words.data() + from * W;
    for (size_t w = 0; w < W; ++w) next_words.push_back(src[w]);
    return next_words.data() + (next.size() - 1) * W;
  };

  {
    obs::TraceScope rounds_span(options.trace, "rounds");
    rounds_span.SetItems(n);
    for (size_t k = 0; k < n; ++k) {
      obs::TraceScope list_span(options.trace, "list");
      const size_t list = perm[k];
      ListCursor cursor(index, q.tokens[list], options.use_skip_index,
                        &counters, options.buffer_pool,
                        options.posting_store);
      // All depth arithmetic in double so no float rounding can cut the
      // scan short of the admission bound.
      double mu = std::min<double>(bound.Depth(k), window.hi);
      double pending_max = cands.empty()
                               ? -std::numeric_limits<double>::infinity()
                               : cands.back().len;
      double stop = std::max(pending_max, mu);
      // Largest float <= stop, so the float-keyed span bound admits exactly
      // the postings with (double)len <= stop.
      float stop_f = ListCursor::kNoLengthBound;
      if (!std::isinf(stop)) {
        stop_f = static_cast<float>(stop);
        if (static_cast<double>(stop_f) > stop) {
          stop_f = std::nextafterf(stop_f,
                                   -std::numeric_limits<float>::infinity());
        }
      }

      cursor.SeekSpanStart(window.lo);
      next.clear();
      next_words.clear();
      size_t ci = 0;
      // Block-at-a-time merge: postings arrive in contiguous spans (charged
      // once per span), candidates in the same (len, id) order.
      const size_t bp = index.block_postings();
      PostingSpan span;
      size_t si = 0;
      bool more = true;
      bool tripped = false;
      for (;;) {
        if (si >= span.count && more) {
          // Control poll, once per span (off the per-posting path).
          if (poller.ShouldStop()) {
            tripped = true;
            break;
          }
          span = cursor.NextSpan(bp, stop_f);
          si = 0;
          more = !span.empty();
        }
        const bool have_p = si < span.count;
        const bool have_c = ci < cands.size();
        if (!have_p && !have_c) break;
        const uint32_t pid = have_p ? span.ids[si] : 0;
        const float plen = have_p ? span.lens[si] : 0.0f;
        if (have_c && (!have_p || CandBefore(cands[ci], plen, pid))) {
          // The list moved past this candidate without containing it:
          // absent by Order Preservation; its potential drops.
          ++counters.candidate_scan_steps;
          Candidate& c = cands[ci];
          c.potential -= bound.Absent(list, c.len);
          if (bound.Viable(c.potential, c.len)) {
            keep(ci);
          } else {
            ++counters.candidate_prunes;
          }
          ++ci;
        } else if (have_p && have_c && cands[ci].id == pid &&
                   cands[ci].len == plen) {
          ++counters.candidate_scan_steps;
          uint64_t* words = keep(ci);
          if constexpr (Bound::kScoresFromLists) SetBit(words, list);
          ++ci;
          ++si;
        } else {
          // New set, first seen in this list.
          const double potential = bound.Start(k, plen);
          if (bound.Viable(potential, plen)) {
            next.push_back(Candidate{pid, plen, potential});
            next_words.resize(next_words.size() + W, 0);
            if constexpr (Bound::kScoresFromLists) {
              SetBit(next_words.data() + (next.size() - 1) * W,
                               list);
            }
            ++counters.candidate_inserts;
          } else {
            ++counters.candidate_prunes;
          }
          ++si;
        }
      }
      cursor.MarkComplete();
      if (io_status.ok() && !cursor.ok()) io_status = cursor.status();
      if (tripped) {
        // Trip epilogue: candidates in flight are `next` (already merged
        // this round) plus the unmerged tail of `cands`; their bitmaps are
        // incomplete (and stay behind), so report them through exact
        // verification only.
        next.insert(next.end(), cands.begin() + ci, cands.end());
        cands.swap(next);
        break;
      }
      cands.swap(next);
      cand_words.swap(next_words);
      list_span.SetItems(cands.size());
    }
  }

  obs::TraceScope verify_span(options.trace, "verify");
  verify_span.SetItems(cands.size());
  result.termination = poller.termination();
  bool scored = false;
  if constexpr (Bound::kScoresFromLists) {
    if (result.termination == Termination::kCompleted) {
      for (size_t j = 0; j < cands.size(); ++j) {
        const Candidate& c = cands[j];
        double score =
            measure.ScoreFromWords(q, cand_words.data() + j * W, c.len);
        if (score >= tau) result.matches.push_back(Match{c.id, score});
      }
      scored = true;
    }
  }
  if (!scored) {
    std::vector<uint32_t> ids;
    ids.reserve(cands.size());
    for (const Candidate& c : cands) ids.push_back(c.id);
    internal::VerifyPartialCandidates(measure, q, tau, ids, &result);
  }
  counters.results = result.matches.size();
  internal::SortMatches(&result.matches);
  if (!io_status.ok()) internal::FailResult(std::move(io_status), &result);
  return result;
}

}  // namespace

QueryResult SfSelect(const InvertedIndex& index, const IdfMeasure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options) {
  return ShortestFirst<IdfBound>(index, measure, q, tau, options);
}

QueryResult SfSelect(const InvertedIndex& index, const TfIdfMeasure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options) {
  return ShortestFirst<TfIdfBound>(index, measure, q, tau, options);
}

QueryResult SfSelect(const InvertedIndex& index, const Bm25Measure& measure,
                     const PreparedQuery& q, double tau,
                     const SelectOptions& options) {
  return ShortestFirst<Bm25Bound>(index, measure, q, tau, options);
}

}  // namespace simsel
