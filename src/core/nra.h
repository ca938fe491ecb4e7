#ifndef SIMSEL_CORE_NRA_H_
#define SIMSEL_CORE_NRA_H_

#include "core/types.h"
#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// Classic No-Random-Access algorithm (Algorithm 1): round-robin sequential
/// reads, a candidate table with lower/upper score bounds from the list
/// frontiers, no semantic properties. As in the paper's experimental setup,
/// the two bookkeeping concessions of Section V are applied (candidate scans
/// only while F < τ, early scan termination) — without them the baseline
/// "did not terminate in a reasonable amount of time". Both concessions are
/// controlled by `options.f_cutoff` / `options.lazy_candidate_scan`; the
/// semantic-property flags are ignored (always off) for this baseline.
QueryResult NraSelect(const InvertedIndex& index, const IdfMeasure& measure,
                      const PreparedQuery& q, double tau,
                      const SelectOptions& options);

}  // namespace simsel

#endif  // SIMSEL_CORE_NRA_H_
