#include "core/bm25_select.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/internal.h"
#include "index/list_cursor.h"

namespace simsel {

namespace {

struct Candidate {
  uint32_t id;
  float dl;  // document length |s|
  double potential;
};

bool CandBefore(const Candidate& c, float dl, uint32_t id) {
  if (c.dl != dl) return c.dl < dl;
  return c.id < id;
}

InvertedIndex BuildBm25Index(const Bm25Measure& measure,
                             const InvertedIndexOptions& options) {
  const Collection& collection = measure.collection();
  std::vector<float> lengths(collection.size());
  for (SetId s = 0; s < collection.size(); ++s) {
    lengths[s] = static_cast<float>(measure.doc_length(s));
  }
  return InvertedIndex::BuildWithLengths(collection, lengths, options);
}

}  // namespace

Bm25Selector::Bm25Selector(const Bm25Measure& measure,
                           InvertedIndexOptions options)
    : measure_(measure), index_(BuildBm25Index(measure, options)) {}

double Bm25Selector::ContributionBound(const PreparedQuery& q, size_t i,
                                       double d) const {
  const Bm25Params& p = measure_.params();
  double mtf = measure_.max_tf(q.tokens[i]);
  double k = p.k1 * ((1.0 - p.b) + p.b * d / measure_.avgdl());
  return q.weights[i] * mtf * (p.k1 + 1.0) / (mtf + k);
}

QueryResult Bm25Selector::Select(const PreparedQuery& q, double tau,
                                 const SelectOptions& options) const {
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  const double prune_at = internal::PruneThreshold(tau);

  // Suffix potential at document length d over SF's processing order.
  // Order lists by their bound at the average document length; the order
  // only affects efficiency, the bounds below are per-candidate exact.
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<double> at_avg(n);
  for (size_t i = 0; i < n; ++i) {
    at_avg[i] = ContributionBound(q, i, measure_.avgdl());
  }
  std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    return at_avg[a] > at_avg[b];
  });

  auto suffix_potential = [&](size_t k, double d) {
    double sum = 0.0;
    for (size_t j = k; j < n; ++j) sum += ContributionBound(q, perm[j], d);
    return sum;
  };

  // λ_k: largest document length at which suffix_potential(k, ·) >= the
  // slacked threshold. suffix_potential is decreasing in d; bisect upward
  // so the scan never stops short of an admissible candidate.
  auto lambda = [&](size_t k) {
    if (prune_at <= 0.0) return std::numeric_limits<double>::infinity();
    double lo = 0.0, hi = 1.0;
    if (suffix_potential(k, lo) < prune_at) return 0.0;
    while (suffix_potential(k, hi) >= prune_at && hi < 1e15) hi *= 2.0;
    if (hi >= 1e15) return std::numeric_limits<double>::infinity();
    for (int iter = 0; iter < 64; ++iter) {
      double mid = 0.5 * (lo + hi);
      if (suffix_potential(k, mid) >= prune_at) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;  // upper end: overshoot, never undershoot
  };

  std::vector<Candidate> cands, next;
  for (size_t k = 0; k < n; ++k) {
    const size_t list = perm[k];
    ListCursor cursor(index_, q.tokens[list], options.use_skip_index,
                      &counters, options.buffer_pool,
                      options.posting_store);
    double mu = lambda(k);
    double pending_max = cands.empty()
                             ? -std::numeric_limits<double>::infinity()
                             : cands.back().dl;
    double stop = std::max(pending_max, mu);

    cursor.Next();
    next.clear();
    size_t ci = 0;
    for (;;) {
      bool have_p =
          cursor.positioned() && static_cast<double>(cursor.len()) <= stop;
      bool have_c = ci < cands.size();
      if (!have_p && !have_c) break;
      if (have_c &&
          (!have_p || CandBefore(cands[ci], cursor.len(), cursor.id()))) {
        ++counters.candidate_scan_steps;
        Candidate& c = cands[ci];
        c.potential -= ContributionBound(q, list, c.dl);
        if (c.potential >= prune_at) {
          next.push_back(c);
        } else {
          ++counters.candidate_prunes;
        }
        ++ci;
      } else if (have_p && have_c && cands[ci].id == cursor.id() &&
                 cands[ci].dl == cursor.len()) {
        ++counters.candidate_scan_steps;
        next.push_back(cands[ci]);
        ++ci;
        cursor.Next();
      } else {
        Candidate c;
        c.id = cursor.id();
        c.dl = cursor.len();
        c.potential = suffix_potential(k, c.dl);
        if (c.potential >= prune_at) {
          next.push_back(c);
          ++counters.candidate_inserts;
        } else {
          ++counters.candidate_prunes;
        }
        cursor.Next();
      }
    }
    cands.swap(next);
    cursor.MarkComplete();
  }

  for (const Candidate& c : cands) {
    ++counters.rows_scanned;
    double score = measure_.Score(q, c.id);
    if (score >= tau) result.matches.push_back(Match{c.id, score});
  }
  counters.results = result.matches.size();
  internal::SortMatches(&result.matches);
  return result;
}

}  // namespace simsel
