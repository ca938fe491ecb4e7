#include "core/tfidf_select.h"

#include "core/sf.h"

namespace simsel {

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
  return SfSelect(index_, measure_, q, tau, options);
}

}  // namespace simsel
