#include <gtest/gtest.h>

#include <cstring>

#include "core/dynamic.h"
#include "obs/metrics_registry.h"
#include "storage/fault_injector.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

std::vector<std::string> BaseRecords() {
  return testing_util::MakeWordRecords(150, /*seed=*/701);
}

TEST(DynamicSelectorTest, FindsDeltaRecords) {
  DynamicSelector dyn(BaseRecords());
  SetId id = dyn.AddRecord(dyn.text(3));  // duplicate of an existing record
  EXPECT_EQ(dyn.delta_size(), 1u);
  QueryResult r = dyn.Select(dyn.text(3), 0.99);
  bool found_main = false, found_delta = false;
  for (const Match& m : r.matches) {
    found_main |= (m.id == 3);
    found_delta |= (m.id == id);
  }
  EXPECT_TRUE(found_main);
  EXPECT_TRUE(found_delta);
}

TEST(DynamicSelectorTest, DeltaScoresComparableToMain) {
  DynamicSelector dyn(BaseRecords());
  SetId id = dyn.AddRecord(dyn.text(7));
  QueryResult r = dyn.Select(dyn.text(7), 0.9);
  double main_score = -1, delta_score = -1;
  for (const Match& m : r.matches) {
    if (m.id == 7) main_score = m.score;
    if (m.id == id) delta_score = m.score;
  }
  ASSERT_GE(main_score, 0.0);
  ASSERT_GE(delta_score, 0.0);
  // Same record, same frozen statistics: identical score up to the float
  // storage of the two lengths.
  EXPECT_NEAR(main_score, delta_score, 1e-5);
}

TEST(DynamicSelectorTest, IdsAreStableAcrossRebuild) {
  DynamicSelector dyn(BaseRecords());
  std::string novel = "zyzzyva quixotic";
  SetId id = dyn.AddRecord(novel);
  EXPECT_EQ(dyn.text(id), novel);
  dyn.Rebuild();
  EXPECT_EQ(dyn.delta_size(), 0u);
  EXPECT_EQ(dyn.text(id), novel);
  QueryResult r = dyn.Select(novel, 0.9);
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches.back().id, id);
}

TEST(DynamicSelectorTest, UnknownTokensOnlyInDelta) {
  DynamicSelector dyn(BaseRecords());
  // A record of tokens the frozen dictionary has never seen: it can only
  // be found once Rebuild folds it in.
  SetId id = dyn.AddRecord("0192837465 5647382910");
  QueryResult before = dyn.Select("0192837465 5647382910", 0.5);
  EXPECT_TRUE(before.matches.empty());
  dyn.Rebuild();
  QueryResult after = dyn.Select("0192837465 5647382910", 0.5);
  ASSERT_FALSE(after.matches.empty());
  EXPECT_EQ(after.matches[0].id, id);
}

TEST(DynamicSelectorTest, DeltaCandidatesChargedToCounters) {
  DynamicSelector dyn(BaseRecords());
  // Records sharing the query's tokens: the delta's per-token index gathers
  // them as candidates, charging postings to elements_read and verified
  // candidates to rows_scanned.
  for (int i = 0; i < 5; ++i) dyn.AddRecord(dyn.text(0));
  QueryResult r = dyn.Select(dyn.text(0), 0.8);
  EXPECT_GE(r.counters.rows_scanned, 5u);
  EXPECT_GE(r.counters.elements_read, 5u);
}

TEST(DynamicSelectorTest, DeltaIndexSkipsDisjointRecords) {
  DynamicSelector dyn(BaseRecords());
  QueryResult before = dyn.Select(dyn.text(0), 0.8);
  // Token-disjoint inserts: with the per-token delta index (PR 8, replacing
  // the exhaustive scan) they are never gathered, so the query does exactly
  // the same work as with an empty delta.
  for (int i = 0; i < 50; ++i) dyn.AddRecord("0192837465");
  QueryResult after = dyn.Select(dyn.text(0), 0.8);
  EXPECT_EQ(after.counters.rows_scanned, before.counters.rows_scanned);
  EXPECT_EQ(after.counters.elements_read, before.counters.elements_read);
  testing_util::ExpectSameMatches(before.matches, after.matches, "disjoint");
}

TEST(DynamicSelectorTest, RepeatedTokensScoreBitIdenticalToMain) {
  // Satellite regression (PR 8): a record with repeated tokens must score
  // bit-identically in the delta and in the main segment under the same
  // frozen statistics. Two ingredients: the IDF measure is set-semantic
  // (TokenCount::count is deliberately dropped from the weights — a
  // repeated token contributes once, before and after Rebuild alike), and
  // Analyze must accumulate the frozen length in ascending-TokenId order,
  // IdfMeasure's summation order (the old code summed in token-string
  // order, which differs once tokens repeat or interleave).
  std::vector<std::string> base = BaseRecords();
  const std::string repeated = "tortoise tortoise tortoise shell";
  base.push_back(repeated);
  const SetId main_id = static_cast<SetId>(base.size() - 1);
  DynamicSelector dyn(base);
  SetId delta_id = dyn.AddRecord(repeated);
  QueryResult r = dyn.Select(repeated, 0.5);
  double main_score = -1.0, delta_score = -1.0;
  for (const Match& m : r.matches) {
    if (m.id == main_id) main_score = m.score;
    if (m.id == delta_id) delta_score = m.score;
  }
  ASSERT_GT(main_score, 0.0);
  ASSERT_GT(delta_score, 0.0);
  EXPECT_EQ(0, std::memcmp(&main_score, &delta_score, sizeof(double)))
      << "main=" << main_score << " delta=" << delta_score;
  // And the frozen-delta score survives a Rebuild unchanged for this
  // record: the duplicate pair keeps identical (refreshed) statistics.
  dyn.Rebuild();
  QueryResult rebuilt = dyn.Select(repeated, 0.5);
  double a = -1.0, b = -1.0;
  for (const Match& m : rebuilt.matches) {
    if (m.id == main_id) a = m.score;
    if (m.id == delta_id) b = m.score;
  }
  ASSERT_GT(a, 0.0);
  ASSERT_GT(b, 0.0);
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
}

TEST(DynamicSelectorTest, BudgetTripsInsideDeltaScan) {
  DynamicSelector dyn(BaseRecords());
  const std::string query = dyn.text(0);
  QueryResult main_only = dyn.Select(query, 0.8);
  ASSERT_TRUE(main_only.complete());
  uint64_t main_work =
      main_only.counters.elements_read + main_only.counters.rows_scanned;
  for (int i = 0; i < 100; ++i) dyn.AddRecord(query);
  QueryResult full = dyn.Select(query, 0.8);
  ASSERT_TRUE(full.complete());
  EXPECT_EQ(full.termination, Termination::kCompleted);

  // A budget that covers the main segment but not the delta postings: the
  // poller (PR 8 — the delta scan used to ignore SelectOptions::control
  // entirely) trips inside the delta pass.
  SelectOptions options;
  options.control.max_elements_read = main_work + 10;
  QueryResult tripped = dyn.Select(query, 0.8, AlgorithmKind::kSf, options);
  ASSERT_TRUE(tripped.status.ok());
  EXPECT_EQ(tripped.termination, Termination::kBudget);
  EXPECT_FALSE(tripped.complete());
  testing_util::ExpectSoundPartial(full, tripped, "delta trip");
}

TEST(DynamicSelectorTest, OneMetricsFlushPerQueryCountsDeltaTrips) {
  DynamicSelector dyn(BaseRecords());
  const std::string query = dyn.text(0);
  QueryResult main_only = dyn.Select(query, 0.8);
  ASSERT_TRUE(main_only.complete());
  uint64_t main_work =
      main_only.counters.elements_read + main_only.counters.rows_scanned;
  for (int i = 0; i < 100; ++i) dyn.AddRecord(query);
  SelectOptions options;
  options.control.max_elements_read = main_work + 10;

  // The main and delta parts of one query are one executed query: one
  // count, one latency sample, and a trip inside the delta part is the
  // query's termination.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string sf = obs::LabelPair("algo", "SF");
  obs::Counter* budget_trips = reg.GetCounter(
      "simsel_query_terminations_total", obs::LabelPair("reason", "budget"));
  obs::Counter* queries = reg.GetCounter("simsel_queries_total", sf);
  obs::Histogram* latency = reg.GetHistogram("simsel_query_latency_usec", sf);
  obs::Counter* rows = reg.GetCounter("simsel_rows_scanned_total");
  obs::Counter* postings = reg.GetCounter("simsel_postings_read_total");
  const uint64_t trips0 = budget_trips->Value();
  const uint64_t queries0 = queries->Value();
  const uint64_t latency0 = latency->Count();
  const uint64_t rows0 = rows->Value();
  const uint64_t postings0 = postings->Value();

  QueryResult tripped = dyn.Select(query, 0.8, AlgorithmKind::kSf, options);
  ASSERT_TRUE(tripped.status.ok());
  ASSERT_EQ(tripped.termination, Termination::kBudget);
  // The trip happened inside the delta part: it read delta postings.
  ASSERT_GT(tripped.counters.elements_read, main_only.counters.elements_read);
  EXPECT_EQ(budget_trips->Value() - trips0, 1u);
  EXPECT_EQ(queries->Value() - queries0, 1u);
  EXPECT_EQ(latency->Count() - latency0, 1u);
  EXPECT_EQ(rows->Value() - rows0, tripped.counters.rows_scanned);
  EXPECT_EQ(postings->Value() - postings0, tripped.counters.elements_read);
}

TEST(DynamicSelectorTest, SqlWithoutBaselineIsInvalidArgument) {
  // Neither selector was built with build_sql_baseline: kSql is a bad
  // request, not a crash.
  SimilaritySelector plain = SimilaritySelector::Build(BaseRecords());
  QueryResult a = plain.Select(plain.collection().text(0), 0.8,
                               AlgorithmKind::kSql);
  EXPECT_EQ(a.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(a.matches.empty());

  DynamicSelector dyn(BaseRecords());
  dyn.AddRecord(dyn.text(0));  // a delta record that would match
  QueryResult b = dyn.Select(dyn.text(0), 0.8, AlgorithmKind::kSql);
  EXPECT_EQ(b.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(b.matches.empty());
  EXPECT_EQ(b.counters.results, 0u);
}

TEST(DynamicSelectorTest, TrippedMainSkipsDelta) {
  DynamicSelector dyn(BaseRecords());
  const std::string query = dyn.text(0);
  SetId delta_id = dyn.AddRecord(query);
  SelectOptions options;
  options.control.deadline = QueryControl::Clock::now();  // already expired
  QueryResult r = dyn.Select(query, 0.8, AlgorithmKind::kSf, options);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.termination, Termination::kDeadline);
  // The delta holds a perfect match, but a tripped main must not have its
  // partial padded with delta matches (PR 8 fix): the answer stays partial.
  EXPECT_FALSE(r.complete());
  for (const Match& m : r.matches) EXPECT_NE(m.id, delta_id);
}

TEST(DynamicSelectorTest, FailedMainShortCircuitsDelta) {
  DynamicSelector dyn(BaseRecords());
  const std::string query = dyn.text(0);
  dyn.AddRecord(query);  // a delta record that would match
  // Memory-mode selector, caller-supplied disk binding for the main
  // segment (valid while the snapshot's segment is current), with every
  // read failing.
  DynamicSelector::Snapshot snap = dyn.snapshot();
  PostingStore store = PostingStore::Build(snap.main().index());
  FaultInjector injector;
  store.set_fault_injector(&injector);
  injector.FailNextReads(1'000'000);
  SelectOptions options;
  options.posting_store = &store;
  // The sketch tier reads no posting pages, so an engaged query would
  // (correctly) dodge the injected faults; pin it off to exercise the
  // kernel failure path this test is about.
  options.prefilter = false;
  QueryResult r = snap.Select(query, 0.8, AlgorithmKind::kSf, options);
  EXPECT_FALSE(r.status.ok());
  // PR 8 fix: the old code appended delta matches to a failed result,
  // making it look fuller than its status admits.
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.counters.results, 0u);
  EXPECT_FALSE(r.complete());
}

TEST(DynamicSelectorTest, SnapshotIsolation) {
  DynamicSelector dyn(BaseRecords());
  DynamicSelector::Snapshot snap = dyn.snapshot();
  uint64_t v0 = snap.version();
  SetId id = dyn.AddRecord(dyn.text(3));
  // The pinned snapshot still sees the pre-insert cut...
  EXPECT_EQ(snap.version(), v0);
  EXPECT_EQ(snap.size(), BaseRecords().size());
  QueryResult old_cut = snap.Select(dyn.text(3), 0.99);
  for (const Match& m : old_cut.matches) EXPECT_NE(m.id, id);
  // ...while fresh reads see the insert.
  EXPECT_EQ(dyn.version(), v0 + 1);
  QueryResult new_cut = dyn.Select(dyn.text(3), 0.99);
  bool found = false;
  for (const Match& m : new_cut.matches) found |= (m.id == id);
  EXPECT_TRUE(found);
  EXPECT_EQ(new_cut.snapshot_version, v0 + 1);
  EXPECT_EQ(old_cut.snapshot_version, v0);
}

TEST(DynamicSelectorTest, VersionMonotoneAcrossRebuild) {
  DynamicSelector dyn(BaseRecords());
  uint64_t v = dyn.version();
  EXPECT_EQ(v, 0u);
  dyn.AddRecord(dyn.text(1));
  dyn.AddRecord(dyn.text(2));
  EXPECT_EQ(dyn.version(), v + 2);
  dyn.Rebuild();
  EXPECT_EQ(dyn.version(), v + 3);  // the rebuild is one content change
  dyn.AddRecord(dyn.text(3));
  EXPECT_EQ(dyn.version(), v + 4);
  dyn.Rebuild();
  EXPECT_EQ(dyn.version(), v + 5);
}

// The delta is sketched and screened with segment 0's tier, which is sound
// only because every segment is built with one sketch family.
TEST(DynamicSelectorTest, SketchedSegmentsShareOneFamily) {
  BuildOptions options;
  options.num_segments = 3;
  options.index.build_sketches = true;
  DynamicSelector dyn(BaseRecords(), options);
  DynamicSelector::Snapshot snap = dyn.snapshot();
  const SimilaritySelector& main = snap.main();
  ASSERT_EQ(main.num_segments(), 3u);
  ASSERT_NE(main.prefilter(), nullptr);
  for (size_t i = 0; i < main.num_segments(); ++i) {
    const sketch::Prefilter* tier = main.segment(i).prefilter.get();
    ASSERT_NE(tier, nullptr) << "segment " << i;
    EXPECT_EQ(tier->params().k, main.prefilter()->params().k);
    EXPECT_EQ(tier->params().seed, main.prefilter()->params().seed);
    EXPECT_EQ(tier->seeds(), main.prefilter()->seeds()) << "segment " << i;
  }
}

}  // namespace
}  // namespace simsel
