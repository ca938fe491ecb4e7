#include <gtest/gtest.h>

#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeQueries;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = new SimilaritySelector(
      MakeSelector(400, /*seed=*/501, /*with_sql=*/true));
  return *selector;
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string>* queries = [] {
    std::vector<std::string> texts;
    for (SetId s = 0; s < Selector().collection().size(); ++s) {
      texts.push_back(Selector().collection().text(s));
    }
    return new std::vector<std::string>(MakeQueries(texts, 15, 511));
  }();
  return *queries;
}

// Monotonicity of pruning in the threshold, pooled over a workload (SF and
// iNRA read monotonically less as tau rises).
TEST(AccountingMonotonicityTest, ReadsDecreaseWithThreshold) {
  const SimilaritySelector& sel = Selector();
  for (AlgorithmKind kind : {AlgorithmKind::kSf, AlgorithmKind::kInra}) {
    uint64_t prev = UINT64_MAX;
    for (double tau : {0.5, 0.7, 0.9}) {
      uint64_t reads = 0;
      for (const std::string& query : Queries()) {
        PreparedQuery q = sel.Prepare(query);
        reads += sel.SelectPrepared(q, tau, kind, {}).counters.elements_read;
      }
      EXPECT_LE(reads, prev) << AlgorithmKindName(kind) << " tau=" << tau;
      prev = reads;
    }
  }
}

// Random accesses: only the TA family and the hash-backed paths issue
// hash probes.
TEST(AccountingProbesTest, OnlyTaFamilyProbes) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(3));
  // Kernel accounting contract, so the sketch tier (which charges its band
  // and signature probes to hash_probes too) is pinned off.
  SelectOptions options;
  options.prefilter = false;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSortById, AlgorithmKind::kNra, AlgorithmKind::kInra,
        AlgorithmKind::kSf, AlgorithmKind::kHybrid}) {
    QueryResult r = sel.SelectPrepared(q, 0.8, kind, options);
    EXPECT_EQ(r.counters.hash_probes, 0u) << AlgorithmKindName(kind);
  }
  QueryResult ta = sel.SelectPrepared(q, 0.8, AlgorithmKind::kTa, options);
  EXPECT_GT(ta.counters.hash_probes, 0u);
}

// AccessCounters itself: Merge covers every field, PruningPower tolerates
// the empty-query case, and ToString renders every field (the buffer-pool
// tallies included) in the documented key=value order.
TEST(AccessCountersTest, MergeCoversEveryField) {
  AccessCounters a;
  a.elements_read = 1;
  a.elements_skipped = 2;
  a.elements_total = 3;
  a.seq_page_reads = 4;
  a.rand_page_reads = 5;
  a.hash_probes = 6;
  a.candidate_inserts = 7;
  a.candidate_prunes = 8;
  a.candidate_scan_steps = 9;
  a.rows_scanned = 10;
  a.pool_hits = 11;
  a.pool_misses = 12;
  a.results = 13;
  AccessCounters b = a;
  b.Merge(a);
  EXPECT_EQ(b.elements_read, 2u);
  EXPECT_EQ(b.elements_skipped, 4u);
  EXPECT_EQ(b.elements_total, 6u);
  EXPECT_EQ(b.seq_page_reads, 8u);
  EXPECT_EQ(b.rand_page_reads, 10u);
  EXPECT_EQ(b.hash_probes, 12u);
  EXPECT_EQ(b.candidate_inserts, 14u);
  EXPECT_EQ(b.candidate_prunes, 16u);
  EXPECT_EQ(b.candidate_scan_steps, 18u);
  EXPECT_EQ(b.rows_scanned, 20u);
  EXPECT_EQ(b.pool_hits, 22u);
  EXPECT_EQ(b.pool_misses, 24u);
  EXPECT_EQ(b.results, 26u);
}

TEST(AccessCountersTest, PruningPowerGuardsZeroTotal) {
  AccessCounters c;
  EXPECT_EQ(c.PruningPower(), 0.0);
  c.elements_total = 100;
  c.elements_read = 25;
  EXPECT_DOUBLE_EQ(c.PruningPower(), 0.75);
  // Reads beyond the total (double-charged landings) clamp at zero pruning.
  c.elements_read = 200;
  EXPECT_EQ(c.PruningPower(), 0.0);
}

TEST(AccessCountersTest, ToStringLocksFormat) {
  AccessCounters c;
  c.elements_read = 1;
  c.elements_skipped = 2;
  c.elements_total = 4;
  c.seq_page_reads = 5;
  c.rand_page_reads = 6;
  c.hash_probes = 7;
  c.candidate_inserts = 8;
  c.candidate_prunes = 9;
  c.candidate_scan_steps = 10;
  c.rows_scanned = 11;
  c.pool_hits = 12;
  c.pool_misses = 13;
  c.results = 14;
  EXPECT_EQ(c.ToString(),
            "read=1 skipped=2 total=4 seq_pages=5 rand_pages=6 probes=7 "
            "cand_ins=8 cand_prune=9 cand_scan=10 rows=11 pool_hits=12 "
            "pool_misses=13 results=14 pruning=0.750");
}

// SQL accounting: rows scanned are bounded by the gram table rows of the
// query's tokens.
TEST(AccountingSqlTest, RowsBoundedByLists) {
  const SimilaritySelector& sel = Selector();
  PreparedQuery q = sel.Prepare(sel.collection().text(5));
  QueryResult r = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSql, {});
  uint64_t bound = 0;
  for (TokenId t : q.tokens) bound += sel.index().ListSize(t);
  EXPECT_LE(r.counters.rows_scanned, bound);
  EXPECT_GT(r.counters.rows_scanned, 0u);
}

}  // namespace
}  // namespace simsel
