// Serving-layer tests: sharded scatter-gather structure, cancellation and
// tracing, result cache hit/patch/invalidation/eviction semantics, and a
// concurrency soak that runs under the TSAN `concurrency` ctest label.
// Exactness over segment counts and storage is oracle_test's.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/parallel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "serve/sharded_selector.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

using serve::CachedResult;
using serve::CacheStamp;
using serve::ResultCache;
using serve::ResultCacheOptions;
using serve::ShardedSelector;
using serve::ShardedSelectorOptions;
using testing_util::ExpectSameMatches;
using testing_util::MakeQueries;
using testing_util::MakeWordRecords;

BuildOptions SmallBuild() {
  BuildOptions build;
  build.tokenizer.q = 3;
  build.index.page_bytes = 512;
  build.index.hash_page_bytes = 256;
  return build;
}

ShardedSelectorOptions ServeOptions(size_t shards, bool disk = false,
                                    size_t cache_bytes = 0) {
  ShardedSelectorOptions o;
  o.num_shards = shards;
  o.build = SmallBuild();
  o.disk_mode = disk;
  if (disk) o.pool_pages = 64;
  o.cache_bytes = cache_bytes;
  return o;
}

TEST(ShardedSelectorTest, ShardsPartitionTheCollection) {
  std::vector<std::string> records = MakeWordRecords(103, 7);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(4));
  ASSERT_EQ(sharded.num_shards(), 4u);
  SetId expected_begin = 0;
  uint64_t postings = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    EXPECT_EQ(sharded.shard_begin(i), expected_begin);
    EXPECT_LE(sharded.shard_begin(i), sharded.shard_end(i));
    expected_begin = sharded.shard_end(i);
    EXPECT_TRUE(sharded.shard_index(i).Validate());
    postings += sharded.shard_index(i).total_postings();
  }
  EXPECT_EQ(expected_begin, sharded.collection().size());
  // Every posting lands in exactly one shard.
  SimilaritySelector single = SimilaritySelector::Build(records, SmallBuild());
  EXPECT_EQ(postings, single.index().total_postings());
}

TEST(ShardedSelectorTest, MoreShardsThanRecordsClamps) {
  std::vector<std::string> records = MakeWordRecords(3, 11);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(16));
  EXPECT_LE(sharded.num_shards(), records.size());
  QueryResult r = sharded.Select(records[0], 0.5);
  EXPECT_TRUE(r.complete());
  EXPECT_FALSE(r.matches.empty());
}

// The segment count and storage are ShardedSelectorOptions' own fields;
// setting them on the nested BuildOptions, where Build would silently
// replace them, is a checked error that names the field to set.
TEST(ShardedSelectorTest, NestedSegmentAndStorageFieldsAreRejected) {
  const std::vector<std::string> records = MakeWordRecords(20, 3);
  ShardedSelectorOptions segments = ServeOptions(2);
  segments.build.num_segments = 2;
  EXPECT_DEATH(ShardedSelector::Build(records, segments),
               "ShardedSelectorOptions::num_shards");
  ShardedSelectorOptions disk = ServeOptions(2);
  disk.build.disk_mode = true;
  EXPECT_DEATH(ShardedSelector::Build(records, disk),
               "ShardedSelectorOptions::disk_mode");
  ShardedSelectorOptions pool = ServeOptions(2);
  pool.build.pool_pages = 8;
  EXPECT_DEATH(ShardedSelector::Build(records, pool),
               "ShardedSelectorOptions::pool_pages");
}

TEST(ShardedSelectorTest, SqlIsRejected) {
  std::vector<std::string> records = MakeWordRecords(40, 5);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(2));
  QueryResult r = sharded.Select(records[0], 0.6, AlgorithmKind::kSql);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(r.matches.empty());
}

TEST(ShardedSelectorTest, ExpiredDeadlineReportsRootCauseNotCancelled) {
  std::vector<std::string> records = MakeWordRecords(120, 13);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(4));
  ThreadPool pool(3);
  sharded.set_thread_pool(&pool);
  SelectOptions options;
  options.control.deadline =
      QueryControl::Clock::now() - std::chrono::milliseconds(1);
  QueryResult r = sharded.Select(records[0], 0.5, AlgorithmKind::kSf, options);
  // Every shard trips on the deadline; the merge must report the first
  // shard's root cause, never the sibling-cancel it induced.
  EXPECT_EQ(r.termination, Termination::kDeadline);
  EXPECT_TRUE(r.status.ok());
}

#ifndef SIMSEL_DISABLE_TRACING
TEST(ShardedSelectorTest, TracedScatterStitchesOneSubtreePerShard) {
  // Regression for the PR 3 workaround: shard tasks used to run traceless.
  // A traced scatter query now yields ONE hierarchical span tree with a
  // shard[i] subtree per shard, stitched at the gather point.
  std::vector<std::string> records = MakeWordRecords(120, 7);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(4));
  ThreadPool pool(3);
  sharded.set_thread_pool(&pool);
  auto run = [&](obs::QueryTrace* trace) {
    SelectOptions options;
    options.trace = trace;
    return sharded.Select(records[5], 0.5, AlgorithmKind::kSf, options);
  };
  obs::QueryTrace first, second;
  QueryResult r1 = run(&first);
  QueryResult r2 = run(&second);
  ASSERT_TRUE(r1.complete());
  ASSERT_TRUE(r2.complete());
  EXPECT_EQ(r1.trace, &first);

  const std::string structure = first.StructureString();
  EXPECT_EQ(structure.rfind("0:query\n", 0), 0u) << structure;
  EXPECT_NE(structure.find("1:tokenize\n"), std::string::npos);
  EXPECT_NE(structure.find("1:scatter\n"), std::string::npos);
  EXPECT_NE(structure.find("1:merge\n"), std::string::npos);
  // One shard[i] wrapper per shard, in shard order, each followed by the
  // worker's own depth-3 span subtree.
  size_t pos = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    std::string wrapper = "2:shard[" + std::to_string(i) + "]\n3:";
    size_t at = structure.find(wrapper, pos);
    ASSERT_NE(at, std::string::npos) << "missing shard " << i << " subtree in\n"
                                     << structure;
    pos = at + wrapper.size();
  }
  // The stitched tree shape is byte-stable run to run.
  EXPECT_EQ(structure, second.StructureString());
}

TEST(ShardedSelectorTest, TrippedUntracedQueryLandsInSlowQueryLog) {
  // Tail sampling end to end: an untraced serve query that trips its
  // deadline must leave a slow-query record carrying the termination reason
  // and the sampled span tree — without the sampling trace ever escaping to
  // the caller.
  obs::FlightRecorder::Global().ResetForTest();
  std::vector<std::string> records = MakeWordRecords(120, 13);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(4));
  ThreadPool pool(3);
  sharded.set_thread_pool(&pool);
  SelectOptions options;
  options.control.deadline =
      QueryControl::Clock::now() - std::chrono::milliseconds(1);
  QueryResult r = sharded.Select(records[0], 0.5, AlgorithmKind::kSf, options);
  EXPECT_EQ(r.termination, Termination::kDeadline);
  EXPECT_EQ(r.trace, nullptr);  // the sampling trace stays private

  std::vector<std::string> log = obs::FlightRecorder::Global().SlowQueryLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("\"termination\":\"deadline\""), std::string::npos)
      << log[0];
  // The sampling trace attaches at SelectPrepared, so the recorded tree
  // starts at the scatter and carries the stitched per-shard subtrees.
  EXPECT_NE(log[0].find("\"name\":\"scatter\""), std::string::npos) << log[0];
  EXPECT_NE(log[0].find("\"name\":\"shard[0]\""), std::string::npos) << log[0];
  EXPECT_GE(obs::FlightRecorder::Global().slow_queries_recorded(), 1u);
  obs::FlightRecorder::Global().ResetForTest();
}
#endif  // SIMSEL_DISABLE_TRACING

TEST(ShardedSelectorTest, CallerCancelTokenStopsTheQuery) {
  std::vector<std::string> records = MakeWordRecords(120, 17);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(4));
  std::atomic<bool> cancel{true};  // pre-cancelled
  SelectOptions options;
  options.control.cancel = &cancel;
  QueryResult r = sharded.Select(records[0], 0.5, AlgorithmKind::kSf, options);
  EXPECT_EQ(r.termination, Termination::kCancelled);
}

TEST(ShardedSelectorTest, BatchSelectMatchesSerialLoop) {
  std::vector<std::string> records = MakeWordRecords(80, 23);
  ShardedSelector sharded = ShardedSelector::Build(records, ServeOptions(3));
  ThreadPool pool(2);
  sharded.set_thread_pool(&pool);
  std::vector<std::string> queries = MakeQueries(records, 8, 31);
  std::vector<QueryResult> batch =
      BatchSelect(sharded, queries, 0.6, AlgorithmKind::kSf, {}, nullptr);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult serial = sharded.Select(queries[i], 0.6, AlgorithmKind::kSf);
    ExpectSameMatches(serial.matches, batch[i].matches,
                      "batch query " + std::to_string(i));
  }
}

TEST(ResultCacheTest, KeySeparatesEveryAnswerAffectingInput) {
  PreparedQuery q;
  q.tokens = {1, 5, 9};
  q.tfs = {1, 2, 1};
  q.length = 2.5;
  q.multiset_size = 4;
  SelectOptions options;
  std::string base =
      ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf, options, false, "IDF");
  EXPECT_EQ(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf, options,
                                       false, "IDF"));
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.81, AlgorithmKind::kSf, options,
                                       false, "IDF"));
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kInra, options,
                                       false, "IDF"));
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf, options,
                                       true, "IDF"));
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf, options,
                                       false, "BM25"));
  SelectOptions ablated;
  ablated.use_skip_index = false;
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf, ablated,
                                       false, "IDF"));
  PreparedQuery q2 = q;
  q2.length = 2.75;  // same tokens, more unknown-token mass
  EXPECT_NE(base, ResultCache::MakeKey(q2, 0.8, AlgorithmKind::kSf, options,
                                       false, "IDF"));
  PreparedQuery q3 = q;
  q3.tfs = {1, 1, 1};
  EXPECT_NE(base, ResultCache::MakeKey(q3, 0.8, AlgorithmKind::kSf, options,
                                       false, "IDF"));
  // The tier changes counters (and a delta part's screen), so it is keyed.
  SelectOptions no_prefilter;
  no_prefilter.prefilter = false;
  EXPECT_NE(base, ResultCache::MakeKey(q, 0.8, AlgorithmKind::kSf,
                                       no_prefilter, false, "IDF"));
}

TEST(ResultCacheTest, LruEvictionAndByteAccounting) {
  ResultCacheOptions options;
  options.num_shards = 1;  // deterministic global LRU
  std::string key_a(8, 'a'), key_b(8, 'b'), key_c(8, 'c');
  std::vector<Match> matches = {{1, 0.9}, {2, 0.8}};
  options.capacity_bytes = 2 * ResultCache::EntryBytes(key_a, matches.size());
  ResultCache cache(options);

  AccessCounters counters;
  counters.elements_read = 7;
  cache.Insert(key_a, CacheStamp{1, 0}, matches, counters);
  cache.Insert(key_b, CacheStamp{1, 0}, matches, counters);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.size_bytes(),
            2 * ResultCache::EntryBytes(key_a, matches.size()));

  // Touch A so B is the LRU victim when C arrives.
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(key_a, 1, &out));
  EXPECT_EQ(out.matches.size(), matches.size());
  EXPECT_EQ(out.counters.elements_read, 7u);
  cache.Insert(key_c, CacheStamp{1, 0}, matches, counters);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(key_a, 1, &out));
  EXPECT_TRUE(cache.Lookup(key_c, 1, &out));
  EXPECT_FALSE(cache.Lookup(key_b, 1, &out));

  // An entry larger than the whole budget is dropped, not force-fitted.
  std::vector<Match> huge(4096, Match{1, 0.5});
  cache.Insert(key_b, CacheStamp{1, 0}, huge, counters);
  EXPECT_FALSE(cache.Lookup(key_b, 1, &out));

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(ResultCacheTest, StaleGenerationInvalidatesOnLookup) {
  ResultCacheOptions options;
  options.capacity_bytes = 1u << 16;
  ResultCache cache(options);
  std::vector<Match> matches = {{3, 0.7}};
  cache.Insert("key", CacheStamp{1, 0}, matches, AccessCounters{});
  CachedResult out;
  ASSERT_TRUE(cache.Lookup("key", 1, &out));
  EXPECT_FALSE(cache.Lookup("key", 2, &out));  // stale: erased + counted
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Lookup("key", 2, &out));  // really gone
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(ResultCacheTest, OlderCutOfTheGenerationHitsAndReportsItsCut) {
  ResultCache cache(ResultCacheOptions{1u << 16, 1});
  AccessCounters counters;
  counters.elements_read = 11;
  cache.Insert("key", CacheStamp{3, 5}, {{4, 0.9}}, counters);
  CachedResult out;
  // At its own cut: a plain hit.
  ASSERT_TRUE(cache.Lookup("key", CacheStamp{3, 5}, &out));
  EXPECT_EQ(out.cut, 5u);
  EXPECT_EQ(cache.patches(), 0u);
  // Four records later: still a hit, for the caller to patch from cut 5.
  ASSERT_TRUE(cache.Lookup("key", CacheStamp{3, 9}, &out));
  EXPECT_EQ(out.cut, 5u);
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.counters.elements_read, 11u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.patches(), 1u);
  // The patched answer is re-stamped in place at cut 9.
  counters.elements_read = 13;
  cache.Insert("key", CacheStamp{3, 9}, {{4, 0.9}, {120, 0.8}}, counters);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.size_bytes(), ResultCache::EntryBytes("key", 2));
  ASSERT_TRUE(cache.Lookup("key", CacheStamp{3, 9}, &out));
  EXPECT_EQ(out.cut, 9u);
  EXPECT_EQ(out.matches.size(), 2u);
  EXPECT_EQ(out.counters.elements_read, 13u);
}

TEST(ResultCacheTest, NewerStampMissesWithoutErase) {
  ResultCache cache(ResultCacheOptions{1u << 16, 1});
  cache.Insert("key", CacheStamp{3, 9}, {{4, 0.9}}, AccessCounters{});
  CachedResult out;
  // A reader pinned at an older cut of the generation, or at an older
  // generation, cannot use the entry but must not destroy it.
  EXPECT_FALSE(cache.Lookup("key", CacheStamp{3, 5}, &out));
  EXPECT_FALSE(cache.Lookup("key", CacheStamp{2, 40}, &out));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
  // Nor may its answer replace the newer one.
  cache.Insert("key", CacheStamp{3, 5}, {}, AccessCounters{});
  cache.Insert("key", CacheStamp{2, 40}, {}, AccessCounters{});
  ASSERT_TRUE(cache.Lookup("key", CacheStamp{3, 9}, &out));
  EXPECT_EQ(out.cut, 9u);
  EXPECT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
}

TEST(ResultCacheTest, OldGenerationNeverHitsAtAnOverlappingVersion) {
  // A rebuild folds the first F = 3 delta records while L = 8 exist by the
  // swap; the 5 appended mid-build are carried into the new delta. The old
  // generation (base version 0) stamped cut 7 at version 0 + 7 = 7. The new
  // generation's base version is 0 + F + 1 = 4, so its cut 3 is version 7
  // too. The stamps must stay apart: the entry scored the old statistics.
  ResultCache cache(ResultCacheOptions{1u << 16, 1});
  cache.Insert("key", CacheStamp{0, 7}, {{2, 0.9}}, AccessCounters{});
  CachedResult out;
  EXPECT_FALSE(cache.Lookup("key", CacheStamp{1, 3}, &out));
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, ResidentBytesGaugeReconcilesUnderConcurrentChurn) {
  // The process-wide simsel_result_cache_bytes gauge is shared by every
  // ResultCache instance, so the test works in deltas: whatever this
  // instance adds under concurrent Insert/Lookup/evict churn must leave the
  // gauge exactly where it started once Clear empties the cache.
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("simsel_result_cache_bytes");
  const int64_t before = gauge->Value();

  ResultCacheOptions options;
  options.capacity_bytes = 1u << 14;  // small budget => constant eviction
  options.num_shards = 2;
  {
    ResultCache cache(options);
    std::vector<Match> matches(16, Match{1, 0.5});
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      writers.emplace_back([&, t] {
        AccessCounters counters;
        for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          std::string key = "k";
          key += std::to_string(t);
          key += '-';
          key += std::to_string(i % 64);
          cache.Insert(key, CacheStamp{1, 0}, matches, counters);
          CachedResult out;
          cache.Lookup(key, 1, &out);
          if (i % 16 == 15) cache.Lookup(key, 2, &out);  // invalidate path
          if (i >= 400) break;
        }
      });
    }
    std::thread clearer([&] {
      for (int i = 0; i < 10; ++i) {
        cache.Clear();
        std::this_thread::yield();
      }
    });
    for (std::thread& w : writers) w.join();
    stop.store(true, std::memory_order_relaxed);
    clearer.join();

    // Mid-life checkpoint: with traffic quiesced, the gauge delta must equal
    // the resident truth exactly — not merely converge eventually.
    EXPECT_EQ(gauge->Value() - before,
              static_cast<int64_t>(cache.size_bytes()));
    cache.Clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.size_bytes(), 0u);
    EXPECT_EQ(gauge->Value(), before);
  }
  // Destruction of an already-empty cache must not double-subtract.
  EXPECT_EQ(gauge->Value(), before);
}

TEST(ShardedSelectorTest, CacheHitReturnsIdenticalQueryResult) {
  std::vector<std::string> records = MakeWordRecords(100, 3);
  ShardedSelector sharded = ShardedSelector::Build(
      records, ServeOptions(3, /*disk=*/false, /*cache_bytes=*/1u << 20));
  ResultCache* cache = sharded.result_cache();
  ASSERT_NE(cache, nullptr);

  std::string query = records[7];
  QueryResult miss = sharded.Select(query, 0.6);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->insertions(), 1u);

  QueryResult hit = sharded.Select(query, 0.6);
  EXPECT_EQ(cache->hits(), 1u);
  ExpectSameMatches(miss.matches, hit.matches, "cache hit");
  // The hit returns the cached execution's accounting verbatim.
  EXPECT_EQ(miss.counters.ToString(), hit.counters.ToString());
  EXPECT_EQ(hit.termination, Termination::kCompleted);
  EXPECT_TRUE(hit.status.ok());

  // A different tau is a different entry, not a hit.
  sharded.Select(query, 0.9);
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->misses(), 2u);
}

TEST(ShardedSelectorTest, PartialResultsAreNotCached) {
  std::vector<std::string> records = MakeWordRecords(120, 29);
  ShardedSelector sharded = ShardedSelector::Build(
      records, ServeOptions(2, /*disk=*/false, /*cache_bytes=*/1u << 20));
  SelectOptions options;
  options.control.max_elements_read = 1;  // trips almost immediately
  QueryResult r = sharded.Select(records[1], 0.5, AlgorithmKind::kSf, options);
  EXPECT_EQ(r.termination, Termination::kBudget);
  EXPECT_EQ(sharded.result_cache()->insertions(), 0u);
  // The untripped rerun is cached and complete.
  QueryResult full = sharded.Select(records[1], 0.5, AlgorithmKind::kSf);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(sharded.result_cache()->insertions(), 1u);
}

// TSAN leg: concurrent callers on one shared sharded selector + pool +
// cache. Every complete answer must match the serial ground truth.
TEST(ShardedSelectorTest, ConcurrentServingSoak) {
  std::vector<std::string> records = MakeWordRecords(140, 57);
  SimilaritySelector single = SimilaritySelector::Build(records, SmallBuild());
  ShardedSelector sharded = ShardedSelector::Build(
      records, ServeOptions(4, /*disk=*/false, /*cache_bytes=*/1u << 20));
  ThreadPool pool(4);
  sharded.set_thread_pool(&pool);

  std::vector<std::string> queries = MakeQueries(records, 12, 61);
  constexpr AlgorithmKind kSoakKinds[] = {
      AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid,
      AlgorithmKind::kIta, AlgorithmKind::kSortById};
  std::vector<std::vector<Match>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i] = single.Select(queries[i], 0.6).matches;  // SF ground truth
  }

  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 30;
  std::vector<std::thread> callers;
  std::atomic<bool> failed{false};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds && !failed.load(); ++r) {
        size_t qi = (c * kRounds + r) % queries.size();
        AlgorithmKind kind = kSoakKinds[(c + r) % std::size(kSoakKinds)];
        QueryResult result = sharded.Select(queries[qi], 0.6, kind);
        if (!result.complete()) {
          failed.store(true);
          ADD_FAILURE() << "query unexpectedly incomplete";
          continue;
        }
        // All soak kinds agree with SF on the answer set.
        if (result.matches.size() != expected[qi].size()) {
          failed.store(true);
          ADD_FAILURE() << "caller " << c << " round " << r << " got "
                        << result.matches.size() << " matches, expected "
                        << expected[qi].size();
          continue;
        }
        for (size_t m = 0; m < result.matches.size(); ++m) {
          if (result.matches[m].id != expected[qi][m].id ||
              result.matches[m].score != expected[qi][m].score) {
            failed.store(true);
            ADD_FAILURE() << "caller " << c << " round " << r
                          << " mismatch at rank " << m;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace simsel
