#include "sim/bm25.h"

#include <algorithm>
#include <cmath>

namespace simsel {

Bm25Measure::Bm25Measure(const Collection& collection, bool drop_tf,
                         Bm25Params params)
    : collection_(collection), drop_tf_(drop_tf), params_(params) {
  const Dictionary& dict = collection.dictionary();
  double n = static_cast<double>(collection.size());
  idf_.resize(dict.size());
  for (TokenId t = 0; t < dict.size(); ++t) {
    double df = dict.df(t);
    idf_[t] = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
  }
  max_tf_.assign(dict.size(), 1);
  for (SetId s = 0; s < collection.size(); ++s) {
    const SetRecord& set = collection.set(s);
    for (size_t j = 0; j < set.tokens.size(); ++j) {
      max_tf_[set.tokens[j]] = std::max(max_tf_[set.tokens[j]], set.tfs[j]);
    }
  }
}

double Bm25Measure::avgdl() const {
  return std::max(1.0, collection_.average_set_size());
}

double Bm25Measure::ContributionBound(const PreparedQuery& q, size_t i,
                                      double d) const {
  double mtf = max_tf(q.tokens[i]);
  double k = params_.k1 * ((1.0 - params_.b) + params_.b * d / avgdl());
  return q.weights[i] * mtf * (params_.k1 + 1.0) / (mtf + k);
}

double Bm25Measure::doc_length(SetId s) const {
  const SetRecord& set = collection_.set(s);
  return drop_tf_ ? static_cast<double>(set.tokens.size())
                  : static_cast<double>(set.multiset_size);
}

PreparedQuery Bm25Measure::PrepareQuery(
    const std::vector<TokenCount>& tokens) const {
  PreparedQuery q;
  q.length = 1.0;  // BM25 is unnormalized
  std::vector<std::pair<TokenId, uint32_t>> known;
  for (const TokenCount& tc : tokens) {
    q.multiset_size += tc.count;
    auto id = collection_.dictionary().Find(tc.token);
    if (!id.has_value()) {
      ++q.unknown_tokens;
      continue;
    }
    known.emplace_back(*id, tc.count);
  }
  std::sort(known.begin(), known.end());
  for (const auto& [t, tf] : known) {
    double tfq = drop_tf_ ? 1.0 : static_cast<double>(tf);
    q.tokens.push_back(t);
    q.tfs.push_back(tf);
    // Query-side factor: idf(t) · tf(q,t)(k3+1)/(tf(q,t)+k3).
    q.weights.push_back(idf_[t] * tfq * (params_.k3 + 1.0) /
                        (tfq + params_.k3));
  }
  return q;
}

double Bm25Measure::Score(const PreparedQuery& q, SetId s) const {
  const SetRecord& set = collection_.set(s);
  double doc_len = drop_tf_ ? static_cast<double>(set.tokens.size())
                            : static_cast<double>(set.multiset_size);
  double avgdl = std::max(1.0, collection_.average_set_size());
  double k = params_.k1 * ((1.0 - params_.b) + params_.b * doc_len / avgdl);
  double sum = 0.0;
  size_t i = 0, j = 0;
  while (i < q.tokens.size() && j < set.tokens.size()) {
    if (q.tokens[i] < set.tokens[j]) {
      ++i;
    } else if (set.tokens[j] < q.tokens[i]) {
      ++j;
    } else {
      double tfs = drop_tf_ ? 1.0 : static_cast<double>(set.tfs[j]);
      sum += q.weights[i] * tfs * (params_.k1 + 1.0) / (tfs + k);
      ++i;
      ++j;
    }
  }
  return sum;
}

}  // namespace simsel
