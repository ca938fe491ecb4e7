#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/thread_pool.h"
#include "core/dynamic.h"
#include "serve/dynamic_serving.h"
#include "test_util.h"

// Dynamic-index concurrency soak: concurrent readers x a writer x an online
// Rebuild against ONE shared DynamicSelector, in memory and disk mode. Every
// concurrent result must be byte-identical to a serial ground truth for the
// collection version it was executed at (QueryResult::snapshot_version names
// that version, so the expected answer is a table lookup). This binary
// carries the `concurrency` ctest label: scripts/check.sh always reruns it
// under ThreadSanitizer, so any data race on the append/publish/swap path
// fails the gate.

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeWordRecords;
using testing_util::MatchDifference;

std::vector<std::string> BaseRecords() {
  return testing_util::MakeWordRecords(200, /*seed=*/811);
}

// --- EpochManager unit tests -------------------------------------------

TEST(EpochManagerTest, LiveGuardBlocksReclaim) {
  EpochManager mgr;
  bool freed = false;
  auto guard = std::make_unique<EpochManager::Guard>(mgr);
  mgr.Retire([&freed] { freed = true; });
  // The guard pinned an epoch at or before the retire stamp: not freeable.
  EXPECT_EQ(mgr.Reclaim(), 0u);
  EXPECT_FALSE(freed);
  EXPECT_EQ(mgr.retired_count(), 1u);
  guard.reset();
  EXPECT_EQ(mgr.Reclaim(), 1u);
  EXPECT_TRUE(freed);
  EXPECT_EQ(mgr.retired_count(), 0u);
}

TEST(EpochManagerTest, GuardsTakenAfterRetireDoNotBlockIt) {
  EpochManager mgr;
  bool freed = false;
  {
    // With no readers at all, Retire's opportunistic reclaim frees
    // immediately.
    mgr.Retire([&freed] { freed = true; });
    EXPECT_TRUE(freed);
  }
  freed = false;
  auto old_guard = std::make_unique<EpochManager::Guard>(mgr);
  mgr.Retire([&freed] { freed = true; });  // held back by old_guard
  EXPECT_FALSE(freed);
  // A guard taken *after* the retire pins the advanced epoch: it cannot
  // hold a pointer to the retired object, so once the pre-retire guard
  // exits, reclamation proceeds even though this one is still live.
  EpochManager::Guard new_guard(mgr);
  EXPECT_EQ(mgr.Reclaim(), 0u);
  old_guard.reset();
  EXPECT_EQ(mgr.Reclaim(), 1u);
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, DestructorDrainsRetiredList) {
  int freed = 0;
  {
    EpochManager mgr;
    EpochManager::Guard guard(mgr);
    mgr.Retire([&freed] { ++freed; });
    mgr.Retire([&freed] { ++freed; });
    // Guard still live: nothing freed yet.
    EXPECT_EQ(freed, 0);
  }
  EXPECT_EQ(freed, 2);
}

TEST(EpochManagerTest, GuardChurnNeverFreesUnderAReader) {
  // Readers repeatedly pin the manager and check a token object was not
  // freed under them while a writer retires a fresh object per round.
  EpochManager mgr;
  std::atomic<bool> stop{false};
  // The currently published object; readers dereference it under a guard.
  struct Box {
    std::atomic<uint64_t> canary{0xfeedfaceull};
  };
  std::atomic<Box*> current{new Box};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochManager::Guard guard(mgr);
        Box* box = current.load(std::memory_order_seq_cst);
        if (box->canary.load(std::memory_order_relaxed) != 0xfeedfaceull) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 400; ++round) {
    Box* fresh = new Box;
    Box* old = current.exchange(fresh, std::memory_order_seq_cst);
    mgr.Retire([old] {
      old->canary.store(0, std::memory_order_relaxed);  // poison, then free
      delete old;
    });
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  delete current.load();
}

TEST(EpochManagerTest, MoreThanKSlotsGuardsGrowIntoOverflow) {
  // Guard acquisition must complete in bounded time even when every fixed
  // slot is taken: guard kSlots+1.. land in the overflow list instead of
  // spinning for a release that may never come.
  EpochManager mgr;
  constexpr size_t kExtra = 40;
  std::vector<std::unique_ptr<EpochManager::Guard>> guards;
  guards.reserve(EpochManager::kSlots + kExtra);
  for (size_t i = 0; i < EpochManager::kSlots + kExtra; ++i) {
    // Must not block or crash past kSlots.
    guards.push_back(std::make_unique<EpochManager::Guard>(mgr));
  }
  EXPECT_GE(mgr.overflow_capacity(), kExtra);
  bool freed = false;
  mgr.Retire([&freed] { freed = true; });
  // Overflow pins hold reclamation back exactly like slot pins...
  EXPECT_EQ(mgr.Reclaim(), 0u);
  EXPECT_FALSE(freed);
  // ...including when only overflow pins remain live.
  guards.erase(guards.begin(), guards.begin() + EpochManager::kSlots);
  EXPECT_EQ(mgr.Reclaim(), 0u);
  EXPECT_FALSE(freed);
  guards.clear();
  EXPECT_EQ(mgr.Reclaim(), 1u);
  EXPECT_TRUE(freed);
}

TEST(EpochManagerTest, OverflowNodesAreRecycledAcrossWaves) {
  EpochManager mgr;
  constexpr size_t kWaveExtra = 16;
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<std::unique_ptr<EpochManager::Guard>> guards;
    for (size_t i = 0; i < EpochManager::kSlots + kWaveExtra; ++i) {
      guards.push_back(std::make_unique<EpochManager::Guard>(mgr));
    }
    bool freed = false;
    mgr.Retire([&freed] { freed = true; });
    EXPECT_FALSE(freed);
    guards.clear();
    EXPECT_EQ(mgr.Reclaim(), 1u);
    EXPECT_TRUE(freed);
  }
  // Released overflow nodes are reclaimed by later waves, not re-grown: the
  // list's high-water mark stays at one wave's overflow, bounding memory
  // even under repeated fan-out bursts.
  EXPECT_EQ(mgr.overflow_capacity(), kWaveExtra);
}

TEST(EpochManagerTest, ConcurrentOverflowChurnStaysSafe) {
  // Hammer the overflow path from several threads while a writer retires:
  // each thread holds enough guards to overflow the fixed array on its own,
  // the retired objects' canaries must never be poisoned under a reader.
  EpochManager mgr;
  struct Box {
    std::atomic<uint64_t> canary{0xfeedfaceull};
  };
  std::atomic<Box*> current{new Box};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::unique_ptr<EpochManager::Guard>> guards;
        for (size_t i = 0; i < EpochManager::kSlots / 2 + 8; ++i) {
          guards.push_back(std::make_unique<EpochManager::Guard>(mgr));
        }
        Box* box = current.load(std::memory_order_seq_cst);
        if (box->canary.load(std::memory_order_relaxed) != 0xfeedfaceull) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    Box* fresh = new Box;
    Box* old = current.exchange(fresh, std::memory_order_seq_cst);
    mgr.Retire([old] {
      old->canary.store(0, std::memory_order_relaxed);
      delete old;
    });
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  delete current.load();
}

// --- Serial ground truth keyed by selector version ----------------------
//
// The writer inserts a fixed script of records. A reference selector
// replays the script serially, capturing the expected answer of each probe
// query at every version v = 0..N (v inserts applied). A concurrent
// reader's result then has exactly one correct answer: the one at its
// snapshot_version.

struct VersionedTruth {
  std::vector<std::string> queries;
  // expected[v][qi] = matches of queries[qi] at version v.
  std::vector<std::vector<std::vector<Match>>> expected;
};

VersionedTruth BuildTruth(const std::vector<std::string>& base,
                          const std::vector<std::string>& script,
                          const BuildOptions& options,
                          double tau) {
  VersionedTruth truth;
  for (size_t i = 0; i < 8; ++i) truth.queries.push_back(base[i * 9]);
  truth.queries.push_back(script.front());
  truth.queries.push_back(script.back());
  DynamicSelector ref(base, options);
  truth.expected.resize(script.size() + 1);
  for (size_t v = 0; v <= script.size(); ++v) {
    for (const std::string& q : truth.queries) {
      truth.expected[v].push_back(ref.Select(q, tau).matches);
    }
    if (v < script.size()) ref.AddRecord(script[v]);
  }
  return truth;
}

// Four readers race one writer; every read must equal the serial replay at
// its snapshot_version. `pool` (may be null) runs the main part's segment
// fan-out.
void ExpectReadersMatchVersionedReplay(const BuildOptions& options,
                                       ThreadPool* pool) {
  const double tau = 0.7;
  const std::vector<std::string> base = BaseRecords();
  const std::vector<std::string> script =
      testing_util::MakeWordRecords(120, /*seed=*/823);
  const VersionedTruth truth = BuildTruth(base, script, options, tau);

  DynamicSelector dyn(base, options);
  dyn.set_thread_pool(pool);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checked{0};
  std::vector<std::string> failures(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < failures.size(); ++t) {
    readers.emplace_back([&, t] {
      size_t qi = t;  // staggered start so threads probe different queries
      while (!done.load(std::memory_order_acquire) && failures[t].empty()) {
        qi = (qi + 1) % truth.queries.size();
        QueryResult r = dyn.Select(truth.queries[qi], tau);
        if (!r.status.ok() || !r.complete()) {
          failures[t] = "unexpected status/termination";
          break;
        }
        if (r.snapshot_version >= truth.expected.size()) {
          failures[t] = "version " + std::to_string(r.snapshot_version) +
                        " out of range";
          break;
        }
        std::string diff =
            MatchDifference(truth.expected[r.snapshot_version][qi], r.matches);
        if (!diff.empty()) {
          failures[t] = "q" + std::to_string(qi) + " at v" +
                        std::to_string(r.snapshot_version) + ": " + diff;
          break;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const std::string& rec : script) dyn.AddRecord(rec);
  // Keep the readers probing the fully-written collection a moment.
  while (checked.load(std::memory_order_relaxed) < 400) {
    std::this_thread::yield();
    if (done.load(std::memory_order_acquire)) break;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_EQ(dyn.version(), script.size());
  EXPECT_EQ(dyn.size(), base.size() + script.size());
}

class DynamicSoakParam : public ::testing::TestWithParam<bool> {};

TEST_P(DynamicSoakParam, ConcurrentReadersAndWriterMatchSerial) {
  BuildOptions options;
  options.disk_mode = GetParam();
  ExpectReadersMatchVersionedReplay(options, nullptr);
}

// The same replay over a main part of three segments whose fan-out runs on
// a pool, so the scatter's workers race the writer too.
TEST(DynamicSoakTest, ThreeSegmentReadersAndWriterMatchSerial) {
  BuildOptions options;
  options.num_segments = 3;
  ThreadPool pool(2);
  ExpectReadersMatchVersionedReplay(options, &pool);
}

TEST_P(DynamicSoakParam, QueriesInFlightAcrossRebuildMatchPreOrPost) {
  // Acceptance criterion: a query in flight across the Rebuild swap is
  // byte-identical to EITHER the pre- or the post-rebuild serial answer —
  // never a hybrid — and its snapshot_version says which.
  BuildOptions options;
  options.disk_mode = GetParam();
  const double tau = 0.7;
  const std::vector<std::string> base = BaseRecords();
  const std::vector<std::string> extra =
      testing_util::MakeWordRecords(40, /*seed=*/829);

  // Reference: same inserts, then a rebuild. Pre = version 40 (frozen
  // stats), post = version 41 (folded + refreshed stats).
  std::vector<std::string> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(base[i * 11]);
  queries.push_back(extra[0]);
  DynamicSelector ref(base, options);
  for (const std::string& rec : extra) ref.AddRecord(rec);
  std::vector<std::vector<Match>> pre, post;
  for (const std::string& q : queries) {
    pre.push_back(ref.Select(q, tau).matches);
  }
  ref.Rebuild();
  for (const std::string& q : queries) {
    post.push_back(ref.Select(q, tau).matches);
  }
  const uint64_t pre_version = extra.size();

  DynamicSelector dyn(base, options);
  for (const std::string& rec : extra) dyn.AddRecord(rec);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> post_seen{0};
  std::vector<std::string> failures(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < failures.size(); ++t) {
    readers.emplace_back([&, t] {
      size_t qi = t;
      while (failures[t].empty()) {
        bool last = done.load(std::memory_order_acquire);
        qi = (qi + 1) % queries.size();
        QueryResult r = dyn.Select(queries[qi], tau);
        std::string diff;
        if (r.snapshot_version == pre_version) {
          diff = MatchDifference(pre[qi], r.matches);
        } else if (r.snapshot_version == pre_version + 1) {
          diff = MatchDifference(post[qi], r.matches);
          post_seen.fetch_add(1, std::memory_order_relaxed);
        } else {
          diff = "version " + std::to_string(r.snapshot_version);
        }
        if (!diff.empty()) {
          failures[t] = "q" + std::to_string(qi) + ": " + diff;
        }
        if (last) break;
      }
    });
  }
  dyn.Rebuild();
  // Let every reader observe the post-rebuild world at least once.
  while (post_seen.load(std::memory_order_relaxed) < failures.size()) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_EQ(dyn.version(), pre_version + 1);
  EXPECT_EQ(dyn.delta_size(), 0u);
}

TEST_P(DynamicSoakParam, FullChaosAddSelectRebuildThenExactConvergence) {
  // Writer, four readers and repeated ONLINE rebuilds all racing on one
  // selector. Mid-flight results are checked for the structural invariants
  // that hold at every version (sound ids, sorted order, monotone version);
  // after quiescing and a final fold, results must be byte-identical to a
  // fresh serial build over the full record set.
  BuildOptions options;
  options.disk_mode = GetParam();
  const double tau = 0.7;
  const std::vector<std::string> base = BaseRecords();
  const std::vector<std::string> script =
      testing_util::MakeWordRecords(90, /*seed=*/839);

  DynamicSelector dyn(base, options);
  ThreadPool rebuild_pool(2);
  std::atomic<bool> done{false};
  std::vector<std::string> failures(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < failures.size(); ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_version = 0;
      size_t qi = t;
      while (!done.load(std::memory_order_acquire) && failures[t].empty()) {
        qi = (qi + 7) % base.size();
        QueryResult r = dyn.Select(base[qi], tau);
        if (!r.status.ok() || !r.complete()) {
          failures[t] = "bad status/termination";
          break;
        }
        if (r.snapshot_version < last_version) {
          failures[t] = "version went backwards";
          break;
        }
        last_version = r.snapshot_version;
        for (size_t i = 0; i < r.matches.size(); ++i) {
          if (i > 0 && r.matches[i - 1].id >= r.matches[i].id) {
            failures[t] = "unsorted matches";
          }
          if (r.matches[i].score + 1e-9 < tau) {
            failures[t] = "match below tau";
          }
        }
      }
    });
  }
  for (size_t i = 0; i < script.size(); ++i) {
    dyn.AddRecord(script[i]);
    if (i % 20 == 19) dyn.StartRebuild(&rebuild_pool);
  }
  dyn.WaitForRebuild();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }

  // Quiesced: fold everything, then compare against a fresh serial build.
  dyn.Rebuild();
  std::vector<std::string> all = base;
  all.insert(all.end(), script.begin(), script.end());
  EXPECT_EQ(dyn.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(dyn.text(static_cast<SetId>(i)), all[i]) << "id " << i;
  }
  SimilaritySelector fresh = SimilaritySelector::Build(all);
  for (size_t i = 0; i < 12; ++i) {
    const std::string& q = all[i * 17 % all.size()];
    QueryResult a = fresh.Select(q, tau);
    QueryResult b = dyn.Select(q, tau);
    EXPECT_EQ(MatchDifference(a.matches, b.matches), "") << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DynamicSoakParam, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DiskMode" : "MemoryMode";
                         });

// --- Serving layer: cached answers patched across inserts ---------------

TEST(DynamicServingTest, InsertPatchesTheCachedAnswerAndRebuildMisses) {
  serve::DynamicServingOptions options;
  options.cache_bytes = 1 << 20;
  const std::vector<std::string> base = BaseRecords();
  serve::DynamicServing serving(base, options);
  serve::ResultCache& cache = *serving.result_cache();
  const std::string query = base[3];

  QueryResult first = serving.Select(query, 0.8);
  QueryResult second = serving.Select(query, 0.8);
  EXPECT_EQ(MatchDifference(first.matches, second.matches), "");
  EXPECT_EQ(cache.hits(), 1u);

  // An insert keeps the generation: the entry is hit and patched with the
  // new record, and the answer equals the uncached one at the new version.
  SetId id = serving.AddRecord(query);
  QueryResult third = serving.Select(query, 0.8);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.patches(), 1u);
  EXPECT_EQ(third.snapshot_version, first.snapshot_version + 1);
  ASSERT_FALSE(third.matches.empty());
  EXPECT_EQ(third.matches.back().id, id);
  QueryResult uncached = serving.selector().Select(query, 0.8);
  EXPECT_EQ(MatchDifference(uncached.matches, third.matches), "");
  EXPECT_EQ(uncached.counters.elements_read, third.counters.elements_read);
  EXPECT_EQ(uncached.counters.rows_scanned, third.counters.rows_scanned);

  // The patched answer was re-stamped: the next lookup needs no patch.
  QueryResult fourth = serving.Select(query, 0.8);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.patches(), 1u);
  EXPECT_EQ(MatchDifference(third.matches, fourth.matches), "");

  // A rebuild refreshes the statistics and starts a new generation: a
  // miss. (The query prepares to a new key here, since its token weights
  // and length changed; an old-generation entry under a key that survives
  // the rebuild is erased on lookup, see serving_test.)
  serving.Rebuild();
  QueryResult fifth = serving.Select(query, 0.8);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(MatchDifference(serving.selector().Select(query, 0.8).matches,
                            fifth.matches),
            "");
}

// Readers x a writer x background rebuilds on one cached DynamicServing,
// with appends landing mid-build so rebuilds carry records into the new
// delta (the case where generation and version ranges overlap). A reader
// pairs its cached Select with an uncached Snapshot::Select and compares
// them, ids and score bits, when both carry the same snapshot_version: a
// snapshot version names one state and cut, since a new generation's
// versions start above every version of the old one.
TEST(DynamicServingTest, PatchedHitsMatchUncachedAcrossBackgroundRebuilds) {
  ThreadPool pool(2);
  serve::DynamicServingOptions options;
  options.cache_bytes = 1 << 20;
  options.rebuild_threshold = 24;
  options.pool = &pool;
  const double tau = 0.6;
  const std::vector<std::string> base = BaseRecords();
  const std::vector<std::string> script =
      testing_util::MakeWordRecords(240, /*seed=*/857);
  std::vector<std::string> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(base[i * 13]);
  for (size_t i = 0; i < 4; ++i) queries.push_back(script[i * 50]);

  serve::DynamicServing serving(base, options);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> compared{0};
  std::vector<std::string> failures(3);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < failures.size(); ++t) {
    readers.emplace_back([&, t] {
      size_t qi = t;
      while (!done.load(std::memory_order_acquire) && failures[t].empty()) {
        qi = (qi + 1) % queries.size();
        const QueryResult cached = serving.Select(queries[qi], tau);
        const QueryResult uncached =
            serving.selector().snapshot().Select(queries[qi], tau);
        if (!cached.complete()) {
          failures[t] = "incomplete cached answer";
        } else if (cached.snapshot_version == uncached.snapshot_version) {
          const std::string diff =
              MatchDifference(uncached.matches, cached.matches);
          if (!diff.empty()) {
            failures[t] = "q" + std::to_string(qi) + " at v" +
                          std::to_string(cached.snapshot_version) + ": " +
                          diff;
          }
          compared.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  size_t mid_build = 0;
  for (const std::string& rec : script) {
    mid_build += serving.selector().rebuild_in_progress() ? 1 : 0;
    serving.AddRecord(rec);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  serving.selector().WaitForRebuild();
  while (compared.load(std::memory_order_relaxed) < 200 &&
         std::all_of(failures.begin(), failures.end(),
                     [](const std::string& f) { return f.empty(); })) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_GT(mid_build, 0u);
  EXPECT_GT(serving.result_cache()->patches(), 0u);
  EXPECT_GT(serving.selector().snapshot().generation(), 1u);
}

TEST(DynamicServingTest, ConcurrentCachedReadsNeverServeStaleResults) {
  serve::DynamicServingOptions options;
  options.cache_bytes = 1 << 20;
  const double tau = 0.7;
  const std::vector<std::string> base = BaseRecords();
  const std::vector<std::string> script =
      testing_util::MakeWordRecords(60, /*seed=*/853);
  const VersionedTruth truth =
      BuildTruth(base, script, options.build, tau);

  serve::DynamicServing serving(base, options);
  std::atomic<bool> done{false};
  std::vector<std::string> failures(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < failures.size(); ++t) {
    readers.emplace_back([&, t] {
      size_t qi = t;
      // `first` guarantees at least one Select per reader even if the
      // writer finishes the whole script before this thread is scheduled
      // (single-core hosts) — otherwise the hits+misses assertion below
      // can observe an untouched cache.
      bool first = true;
      while ((first || !done.load(std::memory_order_acquire)) &&
             failures[t].empty()) {
        first = false;
        qi = (qi + 1) % truth.queries.size();
        QueryResult r = serving.Select(truth.queries[qi], tau);
        if (r.snapshot_version >= truth.expected.size()) {
          failures[t] = "version out of range";
          break;
        }
        // Cache hit or miss, the answer must be the serial answer for the
        // version stamped on it — a stale hit would diff here.
        std::string diff =
            MatchDifference(truth.expected[r.snapshot_version][qi], r.matches);
        if (!diff.empty()) {
          failures[t] = "q" + std::to_string(qi) + " at v" +
                        std::to_string(r.snapshot_version) + ": " + diff;
        }
      }
    });
  }
  for (const std::string& rec : script) serving.AddRecord(rec);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_GT(serving.result_cache()->hits() + serving.result_cache()->misses(),
            0u);
}

TEST(DynamicServingTest, ThresholdPolicyRebuildsInBackground) {
  ThreadPool pool(2);
  serve::DynamicServingOptions options;
  options.rebuild_threshold = 16;
  options.pool = &pool;
  const std::vector<std::string> base = BaseRecords();
  serve::DynamicServing serving(base, options);
  for (int i = 0; i < 64; ++i) {
    serving.AddRecord(base[i % base.size()]);
    QueryResult r = serving.Select(base[i % 7], 0.8);
    ASSERT_TRUE(r.status.ok());
  }
  serving.selector().WaitForRebuild();
  // At least one threshold crossing folded the delta.
  EXPECT_LT(serving.selector().delta_size(), 64u);
  EXPECT_EQ(serving.selector().size(), base.size() + 64);
}

// The sketch tier is opt-in: the mixed on/off readers below ask for it.
BuildOptions SketchedBuild() {
  BuildOptions build;
  build.index.build_sketches = true;
  return build;
}

// Concurrent soak (run under TSAN by scripts/check.sh): readers with the
// tier on race readers with it off and concurrent delta appends; every
// thread checks its answers against a serial reference on the snapshot it
// pinned. The tier's state is immutable after Attach, so the only shared
// mutable state is the dynamic selector's own (already TSAN-clean) core.
TEST(PrefilterParityTest, ConcurrentMixedOnOffReaders) {
  std::vector<std::string> records = MakeWordRecords(200, 321);
  DynamicSelector dyn(records, SketchedBuild());
  ASSERT_NE(dyn.snapshot().main().prefilter(), nullptr);
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};

  std::thread writer([&] {
    for (SetId s = 0; s < 30 && !stop.load(); ++s) {
      dyn.AddRecord(records[s % records.size()]);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      SelectOptions on, off;
      off.prefilter = false;
      for (int i = 0; i < 40; ++i) {
        const std::string& query = records[(t * 37 + i * 11) % records.size()];
        const double tau = (i % 2) ? 0.9 : 0.7;
        // Pin one snapshot so both runs and the reference see the same cut.
        DynamicSelector::Snapshot snap = dyn.snapshot();
        PreparedQuery q = snap.Prepare(query);
        QueryResult a = snap.SelectPrepared(q, tau, AlgorithmKind::kSf, on);
        QueryResult b = snap.SelectPrepared(q, tau, AlgorithmKind::kSf, off);
        ExpectSameMatches(b.matches, a.matches,
                          "concurrent t=" + std::to_string(t));
        checked.fetch_add(1);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(checked.load(), 160u);
}

}  // namespace
}  // namespace simsel
