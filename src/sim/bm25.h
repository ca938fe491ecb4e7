#ifndef SIMSEL_SIM_BM25_H_
#define SIMSEL_SIM_BM25_H_

#include <vector>

#include "sim/measure.h"

namespace simsel {

/// Okapi BM25 parameters (standard defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
  double k3 = 8.0;
};

/// Okapi BM25:
///
///   S(q, s) = Σ_{t∈q∩s} idf(t) · tf(s,t)·(k1+1) / (tf(s,t) + K)
///                      · tf(q,t)·(k3+1) / (tf(q,t) + k3)
///   K       = k1·((1-b) + b·|s| / avgdl)
///
/// with idf(t) = ln(1 + (N - N(t) + 0.5) / (N(t) + 0.5)) (the non-negative
/// Robertson-Sparck-Jones form). Scores are unnormalized, which is fine for
/// the Table I ranking experiment. The `drop_tf` flag yields the paper's
/// BM25' variant: both tf components forced to 1, multisets reduced to sets.
class Bm25Measure : public SimilarityMeasure {
 public:
  Bm25Measure(const Collection& collection, bool drop_tf,
              Bm25Params params = Bm25Params());

  std::string_view name() const override {
    return drop_tf_ ? "BM25'" : "BM25";
  }
  PreparedQuery PrepareQuery(
      const std::vector<TokenCount>& tokens) const override;
  double Score(const PreparedQuery& q, SetId s) const override;

  const Bm25Params& params() const { return params_; }
  bool drop_tf() const { return drop_tf_; }
  double idf(TokenId t) const { return idf_[t]; }
  double avgdl() const;

  /// Document length |s| as this flavor scores it (multiset size for BM25,
  /// distinct tokens for BM25').
  double doc_length(SetId s) const;

  /// Maximum tf of `t` this flavor can see (1 under drop_tf). Used by the
  /// boosted-bound selection engine (core/bm25_select.h).
  uint32_t max_tf(TokenId t) const { return drop_tf_ ? 1 : max_tf_[t]; }

  /// Largest contribution list i of `q` can make to a document of length
  /// `d`: q.weights[i] · mtf·(k1+1)/(mtf + K(d)), with mtf = max_tf(q^i).
  /// Decreasing in d; the per-list bound of BM25 Shortest-First.
  double ContributionBound(const PreparedQuery& q, size_t i, double d) const;

  const Collection& collection() const { return collection_; }

 private:
  const Collection& collection_;
  bool drop_tf_;
  Bm25Params params_;
  std::vector<double> idf_;
  std::vector<uint32_t> max_tf_;
};

}  // namespace simsel

#endif  // SIMSEL_SIM_BM25_H_
