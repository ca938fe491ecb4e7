#include "core/segment.h"

#include "common/logging.h"
#include "core/hybrid.h"
#include "core/inra.h"
#include "core/linear_scan.h"
#include "core/nra.h"
#include "core/prefix_filter.h"
#include "core/sf.h"
#include "core/sort_by_id.h"
#include "core/ta.h"

namespace simsel {

QueryResult SelectSegment(const Segment& segment, const IdfMeasure& measure,
                          const Collection& collection, const PreparedQuery& q,
                          double tau, AlgorithmKind kind,
                          const SelectOptions& options) {
  if (segment.store != nullptr &&
      (options.posting_store != segment.store.get() ||
       options.buffer_pool != segment.pool.get())) {
    SelectOptions bound = options;
    bound.posting_store = segment.store.get();
    bound.buffer_pool = segment.pool.get();
    return SelectSegment(segment, measure, collection, q, tau, kind, bound);
  }
  if (options.prefilter && segment.prefilter != nullptr &&
      sketch::PrefilterEligible(kind)) {
    QueryResult out;
    if (segment.prefilter->TrySelect(q, tau, options, &out)) return out;
  }
  const InvertedIndex& index = *segment.index;
  switch (kind) {
    case AlgorithmKind::kLinearScan:
      return LinearScanSelect(measure, collection, q, tau, options,
                              segment.begin, segment.end);
    case AlgorithmKind::kSql:
      break;  // no segment form; callers route it to the SQL baseline
    case AlgorithmKind::kSortById:
      return SortByIdSelect(index, measure, q, tau, options);
    case AlgorithmKind::kTa:
      // Classic TA: semantic-property flags forced off, but environment
      // options (buffer pool, posting store) still apply.
      return internal::TaEngineSelect(index, measure, q, tau, options,
                                      /*improved=*/false);
    case AlgorithmKind::kNra:
      return NraSelect(index, measure, q, tau, options);
    case AlgorithmKind::kIta:
      return ItaSelect(index, measure, q, tau, options);
    case AlgorithmKind::kInra:
      return InraSelect(index, measure, q, tau, options);
    case AlgorithmKind::kSf:
      return SfSelect(index, measure, q, tau, options);
    case AlgorithmKind::kHybrid:
      return HybridSelect(index, measure, q, tau, options);
    case AlgorithmKind::kPrefixFilter:
      return PrefixFilterSelect(index, measure, q, tau, options);
  }
  SIMSEL_CHECK_MSG(false, "algorithm kind has no segment form");
  return QueryResult{};
}

}  // namespace simsel
