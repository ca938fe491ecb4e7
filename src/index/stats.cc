#include "index/stats.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

namespace simsel {

IndexStats ComputeIndexStats(const InvertedIndex& index) {
  IndexStats stats;
  stats.num_tokens = index.num_tokens();
  stats.total_postings = index.total_postings();
  stats.min_set_length = std::numeric_limits<float>::infinity();
  stats.max_set_length = 0.0f;
  std::vector<size_t> sizes;
  sizes.reserve(index.num_tokens());
  stats.min_list = std::numeric_limits<size_t>::max();
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    size_t n = index.ListSize(t);
    stats.max_list = std::max(stats.max_list, n);
    if (n == 0) continue;
    stats.min_list = std::min(stats.min_list, n);
    ++stats.non_empty_lists;
    sizes.push_back(n);
    const float* lens = index.LenLens(t);
    stats.min_set_length = std::min(stats.min_set_length, lens[0]);
    stats.max_set_length = std::max(stats.max_set_length, lens[n - 1]);
  }
  if (sizes.empty()) {
    stats.min_list = 0;
    stats.min_set_length = 0.0f;
    return stats;
  }
  stats.avg_list =
      static_cast<double>(stats.total_postings) / sizes.size();
  std::sort(sizes.begin(), sizes.end());
  auto pct = [&](double p) {
    size_t idx = static_cast<size_t>(p * (sizes.size() - 1));
    return sizes[idx];
  };
  stats.p50_list = pct(0.50);
  stats.p90_list = pct(0.90);
  stats.p99_list = pct(0.99);
  return stats;
}

std::string IndexStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "tokens=%zu (non-empty %zu)  postings=%llu\n"
      "list sizes: min=%zu p50=%zu p90=%zu p99=%zu max=%zu avg=%.1f\n"
      "set lengths: [%.3f, %.3f]",
      num_tokens, non_empty_lists, (unsigned long long)total_postings,
      min_list, p50_list, p90_list, p99_list, max_list, avg_list,
      min_set_length, max_set_length);
  return buf;
}

}  // namespace simsel
