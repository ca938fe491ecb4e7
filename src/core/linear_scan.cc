#include "core/linear_scan.h"

#include <algorithm>

#include "core/internal.h"

namespace simsel {

QueryResult LinearScanSelect(const SimilarityMeasure& measure,
                             const Collection& collection,
                             const PreparedQuery& q, double tau,
                             const SelectOptions& options, SetId begin,
                             SetId end) {
  tau = internal::ClampTau(tau);
  end = std::min<SetId>(end, static_cast<SetId>(collection.size()));
  QueryResult result;
  internal::ControlPoller poller(options.control, result.counters);
  for (SetId s = begin; s < end; ++s) {
    // Control poll once per batch of rows; a trip leaves the literal
    // id-prefix [begin, s) scanned so far, every score exact.
    if (((s - begin) & 1023u) == 0 && poller.ShouldStop()) {
      result.termination = poller.termination();
      break;
    }
    ++result.counters.rows_scanned;
    double score = measure.Score(q, s);
    if (score >= tau) result.matches.push_back(Match{s, score});
  }
  result.counters.results = result.matches.size();
  return result;
}

}  // namespace simsel
