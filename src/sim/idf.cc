#include "sim/idf.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "simd/kernels.h"

namespace simsel {

IdfMeasure::IdfMeasure(const Collection& collection)
    : collection_(collection), idf_(internal::ComputeIdfTable(collection)) {
  set_len_.resize(collection.size());
  for (SetId s = 0; s < collection.size(); ++s) {
    double sum = 0.0;
    for (TokenId t : collection.set(s).tokens) {
      sum += idf_.idf[t] * idf_.idf[t];
    }
    set_len_[s] = static_cast<float>(std::sqrt(sum));
  }
}

PreparedQuery IdfMeasure::PrepareQuery(
    const std::vector<TokenCount>& tokens) const {
  PreparedQuery q;
  double len_sq = 0.0;
  for (const TokenCount& tc : tokens) {
    q.multiset_size += tc.count;
    auto id = collection_.dictionary().Find(tc.token);
    if (!id.has_value()) {
      // Unknown tokens have no list but still normalize the query length:
      // a heavily modified query should score lower against everything.
      ++q.unknown_tokens;
      len_sq += idf_.default_idf * idf_.default_idf;
      continue;
    }
    q.tokens.push_back(*id);
    q.tfs.push_back(tc.count);
  }
  // Sort by TokenId so scoring order is canonical.
  std::vector<size_t> order(q.tokens.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return q.tokens[a] < q.tokens[b]; });
  PreparedQuery out;
  out.multiset_size = q.multiset_size;
  out.unknown_tokens = q.unknown_tokens;
  out.tokens.reserve(order.size());
  out.tfs.reserve(order.size());
  out.weights.reserve(order.size());
  for (size_t i : order) {
    TokenId t = q.tokens[i];
    out.tokens.push_back(t);
    out.tfs.push_back(q.tfs[i]);
    double w = idf_.idf[t] * idf_.idf[t];  // idf(q^i)²
    out.weights.push_back(w);
    len_sq += w;
  }
  out.length = std::sqrt(len_sq);
  return out;
}

double IdfMeasure::Score(const PreparedQuery& q, SetId s) const {
  const SetRecord& set = collection_.set(s);
  return ScoreTokens(q, set.tokens.data(), set.tokens.size(), set_len_[s]);
}

double IdfMeasure::ScoreTokens(const PreparedQuery& q, const TokenId* tokens,
                               size_t n, float set_len) const {
  // SIMD intersection emits the matching query positions in ascending order;
  // the weight sum then runs scalar over those positions in that same
  // canonical (ascending query-index) order, so the accumulation is
  // bit-identical to the classic two-pointer walk regardless of kernel.
  thread_local std::vector<uint32_t> pos;
  pos.resize(q.tokens.size());
  const size_t matches = simd::Kernels().intersect_pos_u32(
      q.tokens.data(), q.tokens.size(), tokens, n, pos.data());
  double sum = 0.0;
  for (size_t i = 0; i < matches; ++i) sum += q.weights[pos[i]];
  return ScoreFromSum(q, sum, set_len);
}

double IdfMeasure::ScoreFromWords(const PreparedQuery& q,
                                  const uint64_t* words,
                                  float set_len) const {
  double sum = 0.0;
  ForEachSetBit(words, q.tokens.size(),
                [&](size_t i) { sum += q.weights[i]; });
  return ScoreFromSum(q, sum, set_len);
}

double IdfMeasure::ScoreFromBits(const PreparedQuery& q,
                                 const DynamicBitset& bits,
                                 float set_len) const {
  SIMSEL_DCHECK(bits.size() == q.tokens.size());
  return ScoreFromWords(q, bits.words(), set_len);
}

}  // namespace simsel
