#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "storage/posting_store.h"
#include "test_util.h"

// Bounded query execution: every algorithm honors QueryControl's deadline,
// element budget and cancellation token, and a tripped query returns a
// *sound partial* — every reported match appears in the complete answer
// with the exact same canonical score. This binary carries the
// `concurrency` label: the cancel-in-flight test races a canceller thread
// against queries on one shared selector and must stay TSAN-clean.

namespace simsel {
namespace {

// Multi-word records (unlike test_util's one-word corpus): a record-sized
// query then carries dozens of gram lists with thousands of postings, so
// every algorithm does enough work to reach even the sparsest poll cadence
// (1024 pops for the merge paths). One-word records would let length
// bounding prune everything for any longer probe query.
const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = [] {
    CorpusOptions corpus;
    corpus.num_records = 1500;
    corpus.vocab_size = 200;
    corpus.min_words = 6;
    corpus.max_words = 10;
    corpus.seed = 47;
    BuildOptions build;
    build.tokenizer.q = 3;
    build.build_sql_baseline = true;
    build.index.page_bytes = 512;
    build.btree_page_bytes = 512;
    return new SimilaritySelector(
        SimilaritySelector::Build(GenerateCorpus(corpus).records, build));
  }();
  return *selector;
}

const PostingStore& Store() {
  static const PostingStore* store =
      new PostingStore(PostingStore::Build(Selector().index()));
  return *store;
}

const AlgorithmKind kAllKinds[] = {
    AlgorithmKind::kLinearScan, AlgorithmKind::kSql,
    AlgorithmKind::kSortById,   AlgorithmKind::kTa,
    AlgorithmKind::kNra,        AlgorithmKind::kIta,
    AlgorithmKind::kInra,       AlgorithmKind::kSf,
    AlgorithmKind::kHybrid,     AlgorithmKind::kPrefixFilter};

// A record-sized probe query (its length sits inside every record's
// Theorem-1 window, so nothing is pruned wholesale).
std::string ProbeQuery(size_t i = 0) {
  return Selector().collection().text(static_cast<SetId>(i * 37 % 1500));
}

// Every partial match must appear in the complete answer with the identical
// score double (subset soundness), and the result's own bookkeeping must be
// consistent.
void ExpectSoundPartial(const QueryResult& full, const QueryResult& partial,
                        const std::string& context) {
  EXPECT_TRUE(partial.status.ok()) << context;
  EXPECT_EQ(partial.counters.results, partial.matches.size()) << context;
  size_t fi = 0;
  for (const Match& m : partial.matches) {
    while (fi < full.matches.size() && full.matches[fi].id < m.id) ++fi;
    ASSERT_LT(fi, full.matches.size())
        << context << ": partial reported id " << m.id
        << " absent from the complete answer";
    ASSERT_EQ(full.matches[fi].id, m.id)
        << context << ": partial reported id " << m.id
        << " absent from the complete answer";
    EXPECT_DOUBLE_EQ(full.matches[fi].score, m.score)
        << context << " id " << m.id;
  }
  // Matches stay in canonical ascending-id order even on the partial path.
  for (size_t i = 1; i < partial.matches.size(); ++i) {
    EXPECT_LT(partial.matches[i - 1].id, partial.matches[i].id) << context;
  }
}

class ControlModeParam : public ::testing::TestWithParam<bool> {
 protected:
  SelectOptions BaseOptions() const {
    SelectOptions o;
    if (GetParam()) o.posting_store = &Store();
    return o;
  }
  std::string ModeName() const { return GetParam() ? " disk" : " mem"; }
};

TEST_P(ControlModeParam, PreExpiredDeadlineTripsEveryAlgorithm) {
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  const double tau = 0.5;
  for (AlgorithmKind kind : kAllKinds) {
    std::string context = std::string(AlgorithmKindName(kind)) + ModeName();
    QueryResult full = sel.Select(query, tau, kind, BaseOptions());
    ASSERT_TRUE(full.complete()) << context;

    SelectOptions opts = BaseOptions();
    opts.control.deadline =
        QueryControl::Clock::now() - std::chrono::milliseconds(1);
    QueryResult r = sel.Select(query, tau, kind, opts);
    EXPECT_EQ(r.termination, Termination::kDeadline) << context;
    EXPECT_FALSE(r.complete()) << context;
    ExpectSoundPartial(full, r, context);
  }
}

TEST_P(ControlModeParam, PreSetCancelTripsEveryAlgorithm) {
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  const double tau = 0.5;
  std::atomic<bool> cancel{true};
  for (AlgorithmKind kind : kAllKinds) {
    std::string context = std::string(AlgorithmKindName(kind)) + ModeName();
    QueryResult full = sel.Select(query, tau, kind, BaseOptions());

    SelectOptions opts = BaseOptions();
    opts.control.cancel = &cancel;
    QueryResult r = sel.Select(query, tau, kind, opts);
    EXPECT_EQ(r.termination, Termination::kCancelled) << context;
    ExpectSoundPartial(full, r, context);
  }
}

TEST_P(ControlModeParam, TinyBudgetTripsEveryAlgorithm) {
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  const double tau = 0.5;
  for (AlgorithmKind kind : kAllKinds) {
    std::string context = std::string(AlgorithmKindName(kind)) + ModeName();
    QueryResult full = sel.Select(query, tau, kind, BaseOptions());

    SelectOptions opts = BaseOptions();
    opts.control.max_elements_read = 1;
    QueryResult r = sel.Select(query, tau, kind, opts);
    EXPECT_EQ(r.termination, Termination::kBudget) << context;
    // The budget is a trip wire: the first poll past it stops the query, so
    // the work done exceeds the budget but stayed far below the full run.
    EXPECT_GT(r.counters.elements_read + r.counters.rows_scanned, 1u)
        << context;
    ExpectSoundPartial(full, r, context);
  }
}

TEST_P(ControlModeParam, PartialStaysSoundAcrossBudgetLevels) {
  // Sweeping the budget slides the trip point through every phase of each
  // algorithm (first spans, candidate scans, verification); soundness must
  // hold wherever the cut lands.
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  const double tau = 0.6;
  for (AlgorithmKind kind : kAllKinds) {
    QueryResult full = sel.Select(query, tau, kind, BaseOptions());
    for (uint64_t budget : {1u, 64u, 512u, 4096u, 32768u}) {
      SelectOptions opts = BaseOptions();
      opts.control.max_elements_read = budget;
      QueryResult r = sel.Select(query, tau, kind, opts);
      std::string context = std::string(AlgorithmKindName(kind)) +
                            ModeName() + " budget " + std::to_string(budget);
      ExpectSoundPartial(full, r, context);
      if (r.termination == Termination::kCompleted) {
        // An untripped run must be the exact complete answer.
        EXPECT_EQ(r.matches.size(), full.matches.size()) << context;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ControlModeParam, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DiskMode" : "MemoryMode";
                         });

TEST(QueryControlTest, InactiveControlNeverTrips) {
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  SelectOptions opts;  // default control: no limits
  for (AlgorithmKind kind : kAllKinds) {
    QueryResult r = sel.Select(query, 0.7, kind, opts);
    EXPECT_TRUE(r.complete()) << AlgorithmKindName(kind);
    EXPECT_EQ(r.termination, Termination::kCompleted)
        << AlgorithmKindName(kind);
  }
}

TEST(QueryControlTest, GenerousLimitsLeaveResultComplete) {
  // Limits set but never reached: the result must be byte-identical to the
  // unbounded run (the control path may not perturb the algorithms).
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  std::atomic<bool> cancel{false};
  for (AlgorithmKind kind : kAllKinds) {
    QueryResult full = sel.Select(query, 0.7, kind, {});
    SelectOptions opts;
    opts.control.deadline = QueryControl::DeadlineAfterMillis(60'000);
    opts.control.max_elements_read = 1'000'000'000;
    opts.control.cancel = &cancel;
    QueryResult r = sel.Select(query, 0.7, kind, opts);
    std::string context = AlgorithmKindName(kind);
    EXPECT_TRUE(r.complete()) << context;
    testing_util::ExpectSameMatches(full.matches, r.matches, context);
  }
}

TEST(QueryControlTest, BatchSelectHonorsSharedDeadline) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> queries;
  for (SetId s = 0; s < 16; ++s) {
    queries.push_back(sel.collection().text(s * 3));
  }
  SelectOptions opts;
  opts.control.deadline =
      QueryControl::Clock::now() - std::chrono::milliseconds(1);
  ThreadPool pool(4);
  std::vector<QueryResult> batch =
      BatchSelect(sel, queries, 0.6, AlgorithmKind::kSf, opts, &pool);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].termination, Termination::kDeadline) << "query " << i;
    QueryResult full = sel.Select(queries[i], 0.6, AlgorithmKind::kSf, {});
    ExpectSoundPartial(full, batch[i], "batch query " + std::to_string(i));
  }
}

TEST(QueryControlTest, BatchSelectSharedCancelStopsTheBatch) {
  const SimilaritySelector& sel = Selector();
  std::vector<std::string> queries(24, ProbeQuery());
  std::atomic<bool> cancel{true};
  SelectOptions opts;
  opts.control.cancel = &cancel;
  ThreadPool pool(4);
  std::vector<QueryResult> batch =
      BatchSelect(sel, queries, 0.5, AlgorithmKind::kInra, opts, &pool);
  for (const QueryResult& r : batch) {
    EXPECT_EQ(r.termination, Termination::kCancelled);
  }
}

TEST(QueryControlTest, CancelInFlightOnSharedSelectorIsRaceFree) {
  // The TSAN gate: many threads serve long queries (memory and disk mode)
  // off ONE shared selector while another thread flips the shared cancel
  // token mid-flight. Every result must be either the complete answer or a
  // sound cancelled partial; no data race, no crash.
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery(5);
  const double tau = 0.4;
  QueryResult full_mem = sel.Select(query, tau, AlgorithmKind::kSf, {});
  SelectOptions disk;
  disk.posting_store = &Store();
  QueryResult full_disk = sel.Select(query, tau, AlgorithmKind::kSf, disk);

  std::atomic<bool> cancel{false};
  const size_t kTasks = 16;
  std::vector<QueryResult> results(kTasks);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    cancel.store(true, std::memory_order_relaxed);
  });
  ThreadPool pool(8);
  ParallelFor(&pool, kTasks, [&](size_t i) {
    SelectOptions opts;
    if (i % 2 == 1) opts.posting_store = &Store();
    opts.control.cancel = &cancel;
    results[i] = sel.SelectPrepared(sel.Prepare(query), tau,
                                    AlgorithmKind::kSf, opts);
  });
  canceller.join();
  for (size_t i = 0; i < kTasks; ++i) {
    const QueryResult& full = (i % 2 == 1) ? full_disk : full_mem;
    std::string context = "task " + std::to_string(i);
    ASSERT_TRUE(results[i].termination == Termination::kCompleted ||
                results[i].termination == Termination::kCancelled)
        << context;
    if (results[i].termination == Termination::kCompleted) {
      testing_util::ExpectSameMatches(full.matches, results[i].matches,
                                      context);
    } else {
      ExpectSoundPartial(full, results[i], context);
    }
  }
}

TEST(QueryControlTest, TopKHonorsControl) {
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery();
  std::atomic<bool> cancel{true};
  SelectOptions opts;
  opts.control.cancel = &cancel;
  QueryResult r = sel.SelectTopK(query, 10, opts);
  EXPECT_EQ(r.termination, Termination::kCancelled);
  EXPECT_TRUE(r.status.ok());
  // A tripped top-k reports only genuinely scored sets — exact scores.
  for (const Match& m : r.matches) {
    EXPECT_DOUBLE_EQ(m.score, sel.measure().Score(sel.Prepare(query), m.id));
  }
}

TEST(QueryControlTest, TopKBudgetSpansTheDescent) {
  // SelectTopK runs SF at 0.9, then at half the previous τ, until a run
  // returns k matches. Replaying that schedule gives each run's work.
  const SimilaritySelector& sel = Selector();
  const std::string query = ProbeQuery(1);
  const size_t k = 50;
  std::vector<uint64_t> work;
  for (double tau = 0.9; tau > 1e-6; tau /= 2) {
    QueryResult run = sel.Select(query, tau);
    work.push_back(run.counters.elements_read + run.counters.rows_scanned);
    if (run.matches.size() >= k) break;
  }
  uint64_t total = 0;
  for (uint64_t w : work) total += w;
  QueryResult unbounded = sel.SelectTopK(query, k);
  ASSERT_TRUE(unbounded.complete());
  ASSERT_EQ(unbounded.matches.size(), k);
  // The descent's counters are the sum of its runs'.
  ASSERT_EQ(unbounded.counters.elements_read + unbounded.counters.rows_scanned,
            total);

  // A budget larger than the first run's work, and than any single run's,
  // but smaller than the descent's: only a budget shared by the runs trips.
  const uint64_t budget = *std::max_element(work.begin(), work.end());
  ASSERT_GT(budget, work.front());
  ASSERT_LT(budget, total);
  SelectOptions opts;
  opts.control.max_elements_read = budget;
  QueryResult r = sel.SelectTopK(query, k, opts);
  EXPECT_EQ(r.termination, Termination::kBudget);
  EXPECT_TRUE(r.status.ok());
  EXPECT_LE(r.matches.size(), k);
  const PreparedQuery q = sel.Prepare(query);
  for (size_t i = 0; i < r.matches.size(); ++i) {
    const Match& m = r.matches[i];
    EXPECT_EQ(m.score, sel.measure().Score(q, m.id)) << "id " << m.id;
    if (i > 0) {
      const Match& prev = r.matches[i - 1];
      EXPECT_TRUE(prev.score > m.score ||
                  (prev.score == m.score && prev.id < m.id))
          << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace simsel
