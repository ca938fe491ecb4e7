// The exactness acceptance test of the sketch prefilter tier: with the tier
// on, every algorithm in every execution mode (memory, disk, static,
// dynamic with unfolded delta records, sharded, concurrent) must return
// matches byte-identical — same ids, same exact score bits — to the tier
// being off. Counters legitimately differ (that is the point of the tier);
// answers never may.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic.h"
#include "core/selector.h"
#include "serve/sharded_selector.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeQueries;
using testing_util::MakeSelector;
using testing_util::MakeWordRecords;

// Every kind with defined SelectOptions semantics; the tier must be a
// no-op for the ineligible baselines (scan, SQL, sort-by-id) and
// answer-preserving for the rest.
const AlgorithmKind kAllKinds[] = {
    AlgorithmKind::kLinearScan, AlgorithmKind::kSql,
    AlgorithmKind::kSortById,   AlgorithmKind::kTa,
    AlgorithmKind::kNra,        AlgorithmKind::kIta,
    AlgorithmKind::kInra,       AlgorithmKind::kSf,
    AlgorithmKind::kHybrid,     AlgorithmKind::kPrefixFilter,
};

const double kTaus[] = {0.5, 0.7, 0.9, 0.95};

// The tier is opt-in: every selector under test here asks for it.
BuildOptions SketchedBuild() {
  BuildOptions build;
  build.index.build_sketches = true;
  return build;
}

std::string Ctx(AlgorithmKind kind, double tau, const char* mode) {
  return std::string(AlgorithmKindName(kind)) + " tau=" + std::to_string(tau) +
         " " + mode;
}

TEST(PrefilterParityTest, MemoryModeAllAlgorithms) {
  SimilaritySelector sel = MakeSelector(400, 4242, /*with_sql=*/true,
                                        /*with_sketches=*/true);
  ASSERT_NE(sel.prefilter(), nullptr);
  std::vector<std::string> queries;
  for (SetId s = 0; s < 15; ++s) queries.push_back(sel.collection().text(s * 9));
  for (const std::string& extra :
       MakeQueries(MakeWordRecords(400, 4242), 10, 7)) {
    queries.push_back(extra);
  }
  SelectOptions on, off;
  off.prefilter = false;
  for (AlgorithmKind kind : kAllKinds) {
    for (double tau : kTaus) {
      for (const std::string& query : queries) {
        PreparedQuery q = sel.Prepare(query);
        QueryResult a = sel.SelectPrepared(q, tau, kind, on);
        QueryResult b = sel.SelectPrepared(q, tau, kind, off);
        ExpectSameMatches(b.matches, a.matches, Ctx(kind, tau, "memory"));
      }
    }
  }
}

TEST(PrefilterParityTest, DiskModeAllAlgorithms) {
  SimilaritySelector sel = MakeSelector(300, 555, /*with_sql=*/false,
                                        /*with_sketches=*/true);
  ASSERT_NE(sel.prefilter(), nullptr);
  PostingStore store = PostingStore::Build(sel.index());
  SelectOptions on, off;
  on.posting_store = &store;
  off.posting_store = &store;
  off.prefilter = false;
  for (AlgorithmKind kind :
       {AlgorithmKind::kTa, AlgorithmKind::kNra, AlgorithmKind::kIta,
        AlgorithmKind::kInra, AlgorithmKind::kSf, AlgorithmKind::kHybrid,
        AlgorithmKind::kPrefixFilter}) {
    for (double tau : kTaus) {
      for (SetId s = 0; s < 10; ++s) {
        PreparedQuery q = sel.Prepare(sel.collection().text(s * 13));
        QueryResult a = sel.SelectPrepared(q, tau, kind, on);
        QueryResult b = sel.SelectPrepared(q, tau, kind, off);
        ExpectSameMatches(b.matches, a.matches, Ctx(kind, tau, "disk"));
      }
    }
  }
}

// Dynamic index: delta records added after the build carry their own
// signatures (sketched against the main segment's hash family) and flow
// through the DeltaScreen, both before and after a Rebuild folds them in.
TEST(PrefilterParityTest, DynamicWithDeltaRecords) {
  std::vector<std::string> records = MakeWordRecords(250, 888);
  DynamicSelector dyn(records, SketchedBuild());
  ASSERT_NE(dyn.snapshot().main().prefilter(), nullptr);
  // Append near-duplicates of existing records so the delta actually holds
  // answers at high thresholds.
  for (SetId s = 0; s < 25; ++s) dyn.AddRecord(records[s * 7]);
  ASSERT_EQ(dyn.delta_size(), 25u);
  SelectOptions on, off;
  off.prefilter = false;
  auto sweep = [&](const char* mode) {
    for (AlgorithmKind kind :
         {AlgorithmKind::kInra, AlgorithmKind::kSf, AlgorithmKind::kHybrid,
          AlgorithmKind::kTa}) {
      for (double tau : kTaus) {
        for (SetId s = 0; s < 12; ++s) {
          std::string query = records[s * 11];
          QueryResult a = dyn.Select(query, tau, kind, on);
          QueryResult b = dyn.Select(query, tau, kind, off);
          ExpectSameMatches(b.matches, a.matches, Ctx(kind, tau, mode));
        }
      }
    }
  };
  sweep("delta");
  dyn.Rebuild();
  ASSERT_EQ(dyn.delta_size(), 0u);
  sweep("post-rebuild");
  // New appends against the rebuilt main (fresh statistics, fresh sketches).
  for (SetId s = 0; s < 10; ++s) dyn.AddRecord(records[s * 3]);
  sweep("delta-after-rebuild");
}

TEST(PrefilterParityTest, ShardedScatterGather) {
  std::vector<std::string> records = MakeWordRecords(360, 99);
  serve::ShardedSelectorOptions opts;
  opts.num_shards = 4;
  opts.build.tokenizer.q = 3;
  opts.build.index.build_sketches = true;
  serve::ShardedSelector sharded = serve::ShardedSelector::Build(records, opts);
  SimilaritySelector flat =
      SimilaritySelector::Build(records, opts.build);
  SelectOptions on, off;
  off.prefilter = false;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid}) {
    for (double tau : kTaus) {
      for (SetId s = 0; s < 10; ++s) {
        const std::string& query = records[s * 17];
        QueryResult a = sharded.Select(query, tau, kind, on);
        QueryResult b = sharded.Select(query, tau, kind, off);
        ExpectSameMatches(b.matches, a.matches, Ctx(kind, tau, "sharded"));
        // And both agree with the unsharded single-index answer.
        QueryResult flat_ref = flat.Select(query, tau, kind, off);
        ExpectSameMatches(flat_ref.matches, a.matches,
                          Ctx(kind, tau, "sharded-vs-flat"));
      }
    }
  }
}

// A saved-index round trip through the latest format preserves the tier:
// the loaded selector re-derives banding tables and router from the
// persisted sketch section and answers identically.
TEST(PrefilterParityTest, SurvivesSaveLoadRoundTrip) {
  std::vector<std::string> records = MakeWordRecords(300, 1234);
  BuildOptions build = SketchedBuild();
  build.tokenizer.q = 3;
  SimilaritySelector built = SimilaritySelector::Build(records, build);
  ASSERT_NE(built.prefilter(), nullptr);
  std::string path = ::testing::TempDir() + "prefilter_parity.simsel";
  ASSERT_TRUE(built.SaveIndex(path, InvertedIndex::kVersionLatest).ok());
  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path, build);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
  ASSERT_NE(loaded->prefilter(), nullptr);
  for (double tau : kTaus) {
    for (SetId s = 0; s < 12; ++s) {
      std::string query = records[s * 5];
      QueryResult a = built.Select(query, tau, AlgorithmKind::kSf, {});
      QueryResult b = loaded->Select(query, tau, AlgorithmKind::kSf, {});
      ExpectSameMatches(a.matches, b.matches,
                        "roundtrip tau=" + std::to_string(tau));
    }
  }
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
