#include "core/bm25_select.h"

#include "core/sf.h"

namespace simsel {

namespace {

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
  return measure_.ContributionBound(q, i, d);
}

QueryResult Bm25Selector::Select(const PreparedQuery& q, double tau,
                                 const SelectOptions& options) const {
  return SfSelect(index_, measure_, q, tau, options);
}

}  // namespace simsel
