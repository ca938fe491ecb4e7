#ifndef SIMSEL_INDEX_STATS_H_
#define SIMSEL_INDEX_STATS_H_

#include <string>

#include "index/inverted_index.h"
#include "sim/idf.h"

namespace simsel {

/// Descriptive statistics of an inverted index, for capacity planning,
/// the CLI's `stats` command and the benchmark environment printouts.
struct IndexStats {
  size_t num_tokens = 0;       // distinct tokens (lists)
  size_t non_empty_lists = 0;
  uint64_t total_postings = 0;
  size_t min_list = 0;
  size_t max_list = 0;
  double avg_list = 0.0;
  size_t p50_list = 0;  // median over non-empty lists
  size_t p90_list = 0;
  size_t p99_list = 0;
  float min_set_length = 0.0f;
  float max_set_length = 0.0f;
  size_t lists_with_hash = 0;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Scans the index once and aggregates.
IndexStats ComputeIndexStats(const InvertedIndex& index);

}  // namespace simsel

#endif  // SIMSEL_INDEX_STATS_H_
