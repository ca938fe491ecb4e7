#ifndef SIMSEL_SIM_IDF_H_
#define SIMSEL_SIM_IDF_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "sim/measure.h"

namespace simsel {

/// The paper's IDF similarity (Equation 1):
///
///   idf(t)  = log2(1 + N / N(t))
///   len(s)  = sqrt( Σ_{t∈s} idf(t)² )
///   I(q, s) = Σ_{t∈q∩s} idf(t)² / (len(s) · len(q))
///
/// It is TF/IDF cosine with the tf component dropped (multisets reduced to
/// sets) and is length-normalized: I ∈ [0, 1] and I(q, q) = 1. Its semantic
/// properties (Order Preservation, Magnitude Boundedness, Length
/// Boundedness; Section IV) are what the iNRA/SF/Hybrid algorithms exploit.
///
/// Numeric convention: set lengths are stored as float — the same value that
/// is serialized in the inverted-list postings — and every component sums
/// common-token contributions in ascending query-token order, so LinearScan
/// and all list-merging algorithms produce bit-identical scores.
class IdfMeasure : public SimilarityMeasure {
 public:
  explicit IdfMeasure(const Collection& collection);

  std::string_view name() const override { return "IDF"; }
  PreparedQuery PrepareQuery(
      const std::vector<TokenCount>& tokens) const override;
  double Score(const PreparedQuery& q, SetId s) const override;

  /// Canonical score of a set given its tokens (`n` distinct ids in
  /// ascending order) and its length: the weights of the common tokens
  /// added in ascending query-token order, then divided through
  /// ScoreFromSum. Score(q, s) is this over s's tokens; a DynamicSelector
  /// delta record, which has no SetRecord, is scored through it too.
  double ScoreTokens(const PreparedQuery& q, const TokenId* tokens, size_t n,
                     float set_len) const;

  double idf(TokenId t) const { return idf_.idf[t]; }
  double default_idf() const { return idf_.default_idf; }

  /// Normalized set length len(s), as stored in the inverted lists.
  float set_length(SetId s) const { return set_len_[s]; }

  /// Canonical score given the membership words `words` (in common/bitset.h's
  /// layout, bit i set iff q.tokens[i] ∈ s) and the
  /// set's length: q.weights[i] added over the set bits in ascending i, then
  /// divided through ScoreFromSum. All list-merging algorithms report
  /// through this function so scores agree bit-for-bit across strategies.
  double ScoreFromWords(const PreparedQuery& q, const uint64_t* words,
                        float set_len) const;

  /// ScoreFromWords over a bitset of q.tokens.size() bits.
  double ScoreFromBits(const PreparedQuery& q, const DynamicBitset& bits,
                       float set_len) const;

  /// Canonical score given `sum`, the common tokens' weights added in
  /// ascending query-token order starting from 0.0: sum / (len(s)·len(q)).
  /// The one place the normalization is written down; ScoreTokens,
  /// ScoreFromWords and the sort-by-id merge's accumulators all divide
  /// through it.
  double ScoreFromSum(const PreparedQuery& q, double sum,
                      float set_len) const {
    double denom = static_cast<double>(set_len) * q.length;
    return denom == 0.0 ? 0.0 : sum / denom;
  }

  /// Per-list contribution w_i(s) of a set with length `set_len` on the list
  /// of q.tokens[i] (Section II): idf(q^i)² / (len(s)·len(q)).
  double Contribution(const PreparedQuery& q, size_t i, float set_len) const {
    return q.weights[i] / (static_cast<double>(set_len) * q.length);
  }

  const Collection& collection() const { return collection_; }

 private:
  const Collection& collection_;
  internal::IdfTable idf_;
  std::vector<float> set_len_;
};

}  // namespace simsel

#endif  // SIMSEL_SIM_IDF_H_
