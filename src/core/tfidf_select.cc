#include "core/tfidf_select.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/internal.h"
#include "index/list_cursor.h"

namespace simsel {

namespace {

struct Candidate {
  uint32_t id;
  float len;
  // Optimistic numerator under the boosted bounds: Σ κ over lists not yet
  // proven absent.
  double potential_num;
};

bool CandBefore(const Candidate& c, float len, uint32_t id) {
  if (c.len != len) return c.len < len;
  return c.id < id;
}

}  // namespace

namespace {

InvertedIndex BuildTfIdfIndex(const TfIdfMeasure& measure,
                              const InvertedIndexOptions& options) {
  const Collection& collection = measure.collection();
  std::vector<float> lengths(collection.size());
  for (SetId s = 0; s < collection.size(); ++s) {
    lengths[s] = measure.set_length(s);
  }
  return InvertedIndex::BuildWithLengths(collection, lengths, options);
}

}  // namespace

TfIdfSelector::TfIdfSelector(const TfIdfMeasure& measure,
                             InvertedIndexOptions options)
    : measure_(measure), index_(BuildTfIdfIndex(measure, options)) {}

QueryResult TfIdfSelector::Select(const PreparedQuery& q, double tau,
                                  const SelectOptions& options) const {
  using internal::kPruneSlack;
  QueryResult result;
  const size_t n = q.tokens.size();
  if (n == 0) return result;
  AccessCounters& counters = result.counters;
  const double prune_at = internal::PruneThreshold(tau);

  // κ_i: the largest numerator contribution list i can make to any set.
  std::vector<double> kappa(n);
  uint32_t mtfq = 1;
  uint32_t max_db_tf = 1;
  for (size_t i = 0; i < n; ++i) {
    uint32_t mtf = measure_.max_tf(q.tokens[i]);
    double idf = measure_.idf(q.tokens[i]);
    // q.weights[i] = tf(q,i)·idf already.
    kappa[i] = q.weights[i] * mtf * idf;
    mtfq = std::max(mtfq, q.tfs[i]);
    max_db_tf = std::max(max_db_tf, mtf);
  }

  // Boosted Theorem 1 window.
  internal::LengthWindow window;
  if (options.length_bounding && tau > 0.0) {
    window.lo = static_cast<float>(tau * q.length / mtfq * (1.0 - kPruneSlack));
    window.hi =
        static_cast<float>(max_db_tf * q.length / tau * (1.0 + kPruneSlack));
  }

  // Shortest-First over decreasing κ.
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](size_t a, size_t b) { return kappa[a] > kappa[b]; });
  std::vector<double> suffix(n + 1, 0.0);
  for (size_t k = n; k-- > 0;) suffix[k] = suffix[k + 1] + kappa[perm[k]];

  std::vector<Candidate> cands, next;
  auto viable = [&](const Candidate& c) {
    return c.potential_num / (static_cast<double>(c.len) * q.length) >=
           prune_at;
  };

  for (size_t k = 0; k < n; ++k) {
    const size_t list = perm[k];
    ListCursor cursor(index_, q.tokens[list], options.use_skip_index,
                      &counters, options.buffer_pool,
                      options.posting_store);
    double lambda = prune_at > 0.0
                        ? suffix[k] / (prune_at * q.length)
                        : std::numeric_limits<double>::infinity();
    double mu = std::min<double>(lambda, window.hi);
    double pending_max = cands.empty()
                             ? -std::numeric_limits<double>::infinity()
                             : cands.back().len;
    double stop = std::max(pending_max, mu);

    cursor.SeekLengthGE(window.lo);
    next.clear();
    size_t ci = 0;
    for (;;) {
      bool have_p = cursor.positioned() &&
                    static_cast<double>(cursor.len()) <= stop;
      bool have_c = ci < cands.size();
      if (!have_p && !have_c) break;
      if (have_c &&
          (!have_p || CandBefore(cands[ci], cursor.len(), cursor.id()))) {
        ++counters.candidate_scan_steps;
        Candidate& c = cands[ci];
        c.potential_num -= kappa[list];  // absent: κ falls out of the bound
        if (viable(c)) {
          next.push_back(c);
        } else {
          ++counters.candidate_prunes;
        }
        ++ci;
      } else if (have_p && have_c && cands[ci].id == cursor.id() &&
                 cands[ci].len == cursor.len()) {
        ++counters.candidate_scan_steps;
        // Present: the bound keeps κ (the actual contribution is unknown
        // until verification but cannot exceed it).
        next.push_back(cands[ci]);
        ++ci;
        cursor.Next();
      } else {
        Candidate c;
        c.id = cursor.id();
        c.len = cursor.len();
        c.potential_num = suffix[k];
        if (viable(c)) {
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

  // Verification: exact TF/IDF score per surviving candidate.
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
