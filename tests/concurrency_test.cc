#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"
#include "test_util.h"

// Concurrent-serving soak: many threads running mixed algorithms in memory
// and disk mode against ONE shared selector, posting store and buffer pool.
// Every concurrent result must be byte-identical to the serial ground truth,
// and the shared structures must keep their invariants. This binary carries
// the `concurrency` ctest label: scripts/check.sh always runs it under
// ThreadSanitizer, so any data race on the shared read path fails the gate.

namespace simsel {
namespace {

using testing_util::MatchDifference;

using testing_util::MakeQueries;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = new SimilaritySelector(
      MakeSelector(800, /*seed=*/311, /*with_sql=*/false));
  return *selector;
}

const PostingStore& Store() {
  static const PostingStore* store =
      new PostingStore(PostingStore::Build(Selector().index()));
  return *store;
}

// The disk-capable algorithm mix the soak rotates through (sort-by-id is the
// merge-path representative).
const AlgorithmKind kSoakKinds[] = {AlgorithmKind::kSf, AlgorithmKind::kInra,
                                    AlgorithmKind::kHybrid,
                                    AlgorithmKind::kIta,
                                    AlgorithmKind::kSortById};

std::vector<std::string> SoakQueries(size_t n) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> texts;
  for (SetId s = 0; s < sel.collection().size(); ++s) {
    texts.push_back(sel.collection().text(s));
  }
  return MakeQueries(texts, n, 313);
}

// Compares the deterministic counter fields (everything except the
// pool hit/miss split, which depends on cross-query interleaving when a
// shared pool is in play).
std::string DiffCounters(const AccessCounters& a, const AccessCounters& b) {
  std::ostringstream out;
  auto field = [&](const char* name, uint64_t x, uint64_t y) {
    if (x != y) out << name << ": " << x << " vs " << y << "; ";
  };
  field("elements_read", a.elements_read, b.elements_read);
  field("elements_skipped", a.elements_skipped, b.elements_skipped);
  field("elements_total", a.elements_total, b.elements_total);
  field("seq_page_reads", a.seq_page_reads, b.seq_page_reads);
  field("rand_page_reads", a.rand_page_reads, b.rand_page_reads);
  field("hash_probes", a.hash_probes, b.hash_probes);
  field("candidate_inserts", a.candidate_inserts, b.candidate_inserts);
  field("candidate_prunes", a.candidate_prunes, b.candidate_prunes);
  field("candidate_scan_steps", a.candidate_scan_steps,
        b.candidate_scan_steps);
  field("rows_scanned", a.rows_scanned, b.rows_scanned);
  field("results", a.results, b.results);
  return out.str();
}

TEST(ConcurrencySoakTest, MixedAlgorithmsDiskAndMemoryMatchSerial) {
  const SimilaritySelector& sel = Selector();
  const PostingStore& store = Store();
  const std::vector<std::string> queries = SoakQueries(12);
  const double tau = 0.7;
  const size_t num_kinds = std::size(kSoakKinds);

  // Serial ground truth, memory mode (disk-mode equality to memory mode is
  // posting_store_test's contract; here it must also hold under load).
  std::vector<PreparedQuery> prepared;
  std::vector<std::vector<QueryResult>> expected(queries.size());
  for (const std::string& query : queries) {
    prepared.push_back(sel.Prepare(query));
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (AlgorithmKind kind : kSoakKinds) {
      expected[qi].push_back(sel.SelectPrepared(prepared[qi], tau, kind, {}));
    }
  }

  // One shared server-wide cache, concurrently touched by every query.
  BufferPool shared_pool(4096);
  const size_t kTasks = queries.size() * num_kinds * 2 * 2;  // x mode x reps
  std::vector<std::string> failures(kTasks);
  ThreadPool pool(8);
  ParallelFor(&pool, kTasks, [&](size_t i) {
    const size_t qi = i % queries.size();
    const size_t ki = (i / queries.size()) % num_kinds;
    const bool disk = (i / (queries.size() * num_kinds)) % 2 == 1;
    SelectOptions opts;
    opts.buffer_pool = &shared_pool;
    if (disk) opts.posting_store = &store;
    QueryResult got =
        sel.SelectPrepared(prepared[qi], tau, kSoakKinds[ki], opts);
    std::string diff = MatchDifference(expected[qi][ki].matches, got.matches);
    if (!diff.empty()) {
      failures[i] = std::string(AlgorithmKindName(kSoakKinds[ki])) +
                    (disk ? " disk" : " mem") + " q" + std::to_string(qi) +
                    ": " + diff;
    }
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
  // The shared pool stayed within capacity and its tallies add up.
  EXPECT_LE(shared_pool.size(), shared_pool.capacity());
  EXPECT_GT(shared_pool.hits() + shared_pool.misses(), 0u);
}

TEST(ConcurrencySoakTest, ConcurrentDiskCursorsDoNotPerturbAccounting) {
  // Same query re-run from many threads in disk mode: per-query counters
  // must come out identical every time (no bleed-through of another
  // thread's reads into this query's accounting).
  const SimilaritySelector& sel = Selector();
  SelectOptions disk;
  disk.posting_store = &Store();
  PreparedQuery q = sel.Prepare(sel.collection().text(7));
  QueryResult serial = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, disk);

  std::vector<std::string> failures(64);
  ThreadPool pool(8);
  ParallelFor(&pool, failures.size(), [&](size_t i) {
    QueryResult got = sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, disk);
    std::string diff = DiffCounters(serial.counters, got.counters);
    if (diff.empty()) diff = MatchDifference(serial.matches, got.matches);
    if (!diff.empty()) failures[i] = diff;
  });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

// --- Satellite: batch determinism across every algorithm kind. ---

class BatchDeterminismParam : public ::testing::TestWithParam<bool> {};

TEST_P(BatchDeterminismParam, BatchSelectIdenticalToSerialLoop) {
  const bool disk = GetParam();
  const SimilaritySelector& sel = Selector();
  const std::vector<std::string> queries = SoakQueries(12);
  const double tau = 0.75;
  SelectOptions opts;
  if (disk) opts.posting_store = &Store();

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kSortById, AlgorithmKind::kTa,  AlgorithmKind::kNra,
      AlgorithmKind::kIta,      AlgorithmKind::kInra, AlgorithmKind::kSf,
      AlgorithmKind::kHybrid,   AlgorithmKind::kPrefixFilter};
  ThreadPool pool(6);
  for (AlgorithmKind kind : kinds) {
    std::vector<QueryResult> batch =
        BatchSelect(sel, queries, tau, kind, opts, &pool);
    ASSERT_EQ(batch.size(), queries.size());
    AccessCounters serial_total, batch_total;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryResult serial = sel.Select(queries[i], tau, kind, opts);
      std::string context = std::string(AlgorithmKindName(kind)) +
                            (disk ? " disk" : " mem") + " query " +
                            std::to_string(i);
      EXPECT_EQ(MatchDifference(serial.matches, batch[i].matches), "")
          << context;
      // Per-query accounting is deterministic: the batch run saw exactly the
      // serial loop's counters, then the aggregates follow.
      EXPECT_EQ(DiffCounters(serial.counters, batch[i].counters), "")
          << context;
      serial_total.Merge(serial.counters);
      batch_total.Merge(batch[i].counters);
    }
    EXPECT_EQ(DiffCounters(serial_total, batch_total), "")
        << AlgorithmKindName(kind) << " aggregate";
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchDeterminismParam, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DiskMode" : "MemoryMode";
                         });

}  // namespace
}  // namespace simsel
