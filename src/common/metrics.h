#ifndef SIMSEL_COMMON_METRICS_H_
#define SIMSEL_COMMON_METRICS_H_

#include <cstdint>
#include <string>

namespace simsel {

/// Access accounting shared by index cursors, membership probes and the
/// selection algorithms. Figures 7-9 of the paper are driven by these counters
/// (pruning power, sequential vs random I/O); every algorithm fills one
/// AccessCounters per query.
struct AccessCounters {
  /// Inverted-list entries decoded by sequential scans.
  uint64_t elements_read = 0;
  /// Inverted-list entries jumped over via the skip index (never decoded).
  uint64_t elements_skipped = 0;
  /// Total entries across the query's inverted lists (denominator for
  /// pruning power).
  uint64_t elements_total = 0;
  /// Simulated sequential page reads (list scans).
  uint64_t seq_page_reads = 0;
  /// Simulated random page reads (membership probes, skip jumps).
  uint64_t rand_page_reads = 0;
  /// Random-access membership probes (TA/iTA block-summary searches, sketch
  /// screens).
  uint64_t hash_probes = 0;
  /// Candidates ever inserted into the candidate set.
  uint64_t candidate_inserts = 0;
  /// Candidates discarded by an upper-bound test.
  uint64_t candidate_prunes = 0;
  /// Full or partial sweeps over the candidate set (bookkeeping cost).
  uint64_t candidate_scan_steps = 0;
  /// Rows touched by the relational baseline (B-tree range scans).
  uint64_t rows_scanned = 0;
  /// Buffer-pool page hits/misses, when a BufferPool is wired into
  /// SelectOptions (misses are the simulated physical disk reads).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Number of results reported.
  uint64_t results = 0;

  /// Adds `other` into this counter set, field by field.
  void Merge(const AccessCounters& other);

  /// Fraction of the query's list elements that were never read, in [0, 1].
  /// Matches the paper's "percentage of elements pruned" (Figure 7).
  double PruningPower() const;

  /// One-line human-readable rendering for debugging.
  std::string ToString() const;
};

}  // namespace simsel

#endif  // SIMSEL_COMMON_METRICS_H_
