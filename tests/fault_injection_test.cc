#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "index/list_cursor.h"
#include "storage/fault_injector.h"
#include "storage/paged_file.h"
#include "storage/posting_store.h"
#include "test_util.h"

// Scripted transient storage faults: an armed FaultInjector makes PagedFile
// reads fail with Unavailable. The failure must travel fail-soft through
// the cursor (reads as exhausted, suffix charged as skipped), surface in
// QueryResult::status with matches cleared — never a crash or a silently
// wrong answer — and BatchSelect must retry it with bounded backoff.

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeSelector;

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = new SimilaritySelector(
      MakeSelector(500, /*seed=*/613, /*with_sql=*/false));
  return *selector;
}

// The fault tests arm/disarm a store-level injector, so each builds its own
// store rather than sharing a global one.
PostingStore MakeStore() { return PostingStore::Build(Selector().index()); }

TEST(FaultInjectorTest, HandsOutExactlyTheArmedFailures) {
  PagedFile file(64);
  std::vector<uint8_t> payload(256, 0xAB);
  file.Append(payload.data(), payload.size());
  FaultInjector injector;
  file.set_fault_injector(&injector);

  uint8_t buf[16];
  ASSERT_TRUE(file.ReadAt(0, sizeof(buf), buf).ok());

  injector.FailNextReads(2);
  Status st = file.ReadAt(0, sizeof(buf), buf);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(file.ReadAt(16, sizeof(buf), buf).ok());
  // Armed count exhausted: reads heal.
  EXPECT_TRUE(file.ReadAt(32, sizeof(buf), buf).ok());
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.remaining(), 0u);

  // A failed read never touches accounting or the destination buffer.
  file.ResetCounters();
  injector.FailNextReads(1);
  uint8_t canary[16];
  std::memset(canary, 0x5C, sizeof(canary));
  EXPECT_FALSE(file.ReadAt(0, sizeof(canary), canary, /*random=*/true).ok());
  EXPECT_EQ(file.random_page_reads(), 0u);
  for (uint8_t b : canary) EXPECT_EQ(b, 0x5C);
}

TEST(FaultInjectorTest, ReadBlockSurfacesStatusInsteadOfCrashing) {
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  const InvertedIndex& index = Selector().index();
  TokenId token = 0;
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    if (index.ListSize(t) > index.ListSize(token)) token = t;
  }
  std::vector<uint32_t> ids(index.ListSize(token));
  std::vector<float> lens(ids.size());

  injector.FailNextReads(1);
  Status status;
  size_t got = store.ReadBlock(token, 0, ids.size(), ids.data(), lens.data(),
                               false, nullptr, &status);
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(status.IsTransient());
  // Disarmed: the same call succeeds and the status out-param resets to OK.
  got = store.ReadBlock(token, 0, ids.size(), ids.data(), lens.data(), false,
                        nullptr, &status);
  EXPECT_EQ(got, ids.size());
  EXPECT_TRUE(status.ok());
}

TEST(FaultInjectorTest, ListCursorFailsSoft) {
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  const InvertedIndex& index = Selector().index();
  TokenId token = 0;
  for (TokenId t = 0; t < index.num_tokens(); ++t) {
    if (index.ListSize(t) > index.ListSize(token)) token = t;
  }
  const size_t n = index.ListSize(token);
  ASSERT_GT(n, 16u);

  AccessCounters counters;
  ListCursor cursor(index, token, /*use_skip=*/true, &counters, nullptr,
                    &store);
  // Read a few postings healthy, then pull the plug mid-list.
  for (int i = 0; i < 3; ++i) cursor.Next();
  ASSERT_TRUE(cursor.ok());
  size_t read_before = counters.elements_read;
  injector.FailNextReads(1'000'000);
  while (!cursor.AtEnd()) cursor.Next();

  EXPECT_FALSE(cursor.ok());
  EXPECT_TRUE(cursor.status().IsTransient());
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_EQ(cursor.FrontierLen(), ListCursor::kNoLengthBound);
  // Accounting invariant: everything not read was charged as skipped —
  // read + skipped covers the whole list despite the failure.
  EXPECT_EQ(counters.elements_read + counters.elements_skipped, n);
  EXPECT_GE(counters.elements_read, read_before);
  // Further calls on the failed cursor stay safe no-ops.
  cursor.Next();
  cursor.SeekLengthGE(0.0f);
  EXPECT_TRUE(cursor.NextSpan(64).empty());
  cursor.MarkComplete();
  EXPECT_EQ(counters.elements_read + counters.elements_skipped, n);
}

TEST(FaultInjectionQueryTest, FailureSurfacesAsStatusWithMatchesCleared) {
  const SimilaritySelector& sel = Selector();
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  const std::string query = sel.collection().text(11);
  SelectOptions disk;
  disk.posting_store = &store;

  for (AlgorithmKind kind :
       {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid,
        AlgorithmKind::kIta, AlgorithmKind::kNra, AlgorithmKind::kTa,
        AlgorithmKind::kPrefixFilter}) {
    std::string context = AlgorithmKindName(kind);
    QueryResult healthy = sel.Select(query, 0.6, kind, disk);
    ASSERT_TRUE(healthy.complete()) << context;
    ASSERT_FALSE(healthy.matches.empty()) << context;

    injector.FailNextReads(1'000'000);
    QueryResult failed = sel.Select(query, 0.6, kind, disk);
    injector.Reset();
    EXPECT_FALSE(failed.status.ok()) << context;
    EXPECT_TRUE(failed.status.IsTransient()) << context;
    EXPECT_TRUE(failed.matches.empty()) << context;
    EXPECT_EQ(failed.counters.results, 0u) << context;
    EXPECT_FALSE(failed.complete()) << context;
    // Every posting of the opened lists is read or skipped, fault or not.
    EXPECT_EQ(failed.counters.elements_total, healthy.counters.elements_total)
        << context;
    EXPECT_EQ(failed.counters.elements_read + failed.counters.elements_skipped,
              failed.counters.elements_total)
        << context;

    // The store healed (injector reset): the same query is exact again.
    QueryResult recovered = sel.Select(query, 0.6, kind, disk);
    ExpectSameMatches(healthy.matches, recovered.matches, context);
  }
}

TEST(FaultInjectionQueryTest, BatchSelectRetriesTransientFaults) {
  const SimilaritySelector& sel = Selector();
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  std::vector<std::string> queries;
  for (SetId s = 0; s < 8; ++s) queries.push_back(sel.collection().text(s));
  SelectOptions disk;
  disk.posting_store = &store;
  ThreadPool pool(1);  // serial pool: the single armed fault lands on one
                       // known attempt and the retry must absorb it

  std::vector<QueryResult> expected =
      BatchSelect(sel, queries, 0.6, AlgorithmKind::kSf, disk, &pool);
  for (const QueryResult& r : expected) ASSERT_TRUE(r.complete());

  // One transient read failure: the afflicted query's first attempt fails,
  // its retry succeeds, and the batch comes out exact.
  injector.FailNextReads(1);
  std::vector<QueryResult> batch =
      BatchSelect(sel, queries, 0.6, AlgorithmKind::kSf, disk, &pool);
  EXPECT_EQ(injector.injected(), 1u);
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(batch[i].status.ok()) << "query " << i;
    ExpectSameMatches(expected[i].matches, batch[i].matches,
                      "retried query " + std::to_string(i));
  }
}

TEST(FaultInjectionQueryTest, BatchSelectSurfacesPersistentOutage) {
  const SimilaritySelector& sel = Selector();
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  std::vector<std::string> queries = {sel.collection().text(2)};
  SelectOptions disk;
  disk.posting_store = &store;
  ThreadPool pool(1);

  // Every read fails: all retry attempts burn out and the failure surfaces
  // as a Status on the result — the batch itself never crashes.
  injector.FailNextReads(UINT64_MAX / 2);
  std::vector<QueryResult> batch =
      BatchSelect(sel, queries, 0.6, AlgorithmKind::kSf, disk, &pool);
  const uint64_t faults_seen = injector.injected();
  injector.Reset();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].status.ok());
  EXPECT_TRUE(batch[0].status.IsTransient());
  EXPECT_TRUE(batch[0].matches.empty());
  // Three attempts ran (bounded retry), each observing at least one fault.
  EXPECT_GE(faults_seen, 3u);
}

TEST(FaultInjectionQueryTest, MemoryModeIsImmuneToTheInjector) {
  // The injector sits under the posting store; memory-mode queries never
  // touch it and stay exact while it is armed.
  const SimilaritySelector& sel = Selector();
  PostingStore store = MakeStore();
  FaultInjector injector;
  store.set_fault_injector(&injector);
  injector.FailNextReads(1'000'000);
  const std::string query = sel.collection().text(7);
  QueryResult r = sel.Select(query, 0.7, AlgorithmKind::kSf, {});
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(injector.injected(), 0u);
}

}  // namespace
}  // namespace simsel
