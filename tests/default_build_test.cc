// The default build carries no sketch tier: the MinHash signatures, the
// prefilter's band tables and router, and the v4 image's sketch payload are
// all opt-in (InvertedIndexOptions::build_sketches). Every front door built
// with default options must come up without them. That its answers equal an
// opted-in build's is oracle_test's sketches axis.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/dynamic.h"
#include "core/selector.h"
#include "obs/metrics_registry.h"
#include "serve/sharded_selector.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::ExpectSameMatches;
using testing_util::MakeWordRecords;

const double kTaus[] = {0.5, 0.7, 0.9, 0.95};

std::string Ctx(AlgorithmKind kind, double tau, const char* mode) {
  return std::string(AlgorithmKindName(kind)) + " tau=" + std::to_string(tau) +
         " " + mode;
}

BuildOptions SketchedBuild() {
  BuildOptions build;
  build.index.build_sketches = true;
  return build;
}

TEST(DefaultBuildTest, SelectorHasNoSketches) {
  const SimilaritySelector sel =
      SimilaritySelector::Build(MakeWordRecords(200, 11));
  EXPECT_EQ(sel.prefilter(), nullptr);
  EXPECT_FALSE(sel.index().has_sketches());
  EXPECT_EQ(sel.Sizes().sketches, 0u);
  // The opt-in still builds the tier.
  const SimilaritySelector opted =
      SimilaritySelector::Build(MakeWordRecords(200, 11), SketchedBuild());
  EXPECT_NE(opted.prefilter(), nullptr);
  EXPECT_GT(opted.Sizes().sketches, 0u);
}

TEST(DefaultBuildTest, EveryShardHasNoSketches) {
  serve::ShardedSelector sharded =
      serve::ShardedSelector::Build(MakeWordRecords(300, 12));
  ASSERT_GT(sharded.num_shards(), 1u);
  for (size_t k = 0; k < sharded.num_shards(); ++k) {
    EXPECT_FALSE(sharded.shard_index(k).has_sketches()) << "shard " << k;
  }
}

// DeltaRecord::sketch is computed exactly when the main segment carries a
// prefilter, so a sketchless main before and after Rebuild means every
// delta record is appended without a signature. The prefilter option must
// then be a no-op down to the counters, no prefilter metric may move, and
// the answers must equal an opted-in selector's.
TEST(DefaultBuildTest, DynamicDeltaRecordsCarryNoSketch) {
  const std::vector<std::string> records = MakeWordRecords(250, 13);
  DynamicSelector dyn(records);
  DynamicSelector opted(records, SketchedBuild());
  struct Case {
    AlgorithmKind kind;
    double tau;
    std::string query;
  };
  std::vector<Case> cases;
  for (AlgorithmKind kind : {AlgorithmKind::kSf, AlgorithmKind::kInra,
                             AlgorithmKind::kHybrid, AlgorithmKind::kTa}) {
    for (double tau : kTaus) {
      for (SetId s = 0; s < 12; ++s) {
        cases.push_back({kind, tau, records[s * 11]});
      }
    }
  }
  auto tier_counts = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    std::vector<uint64_t> counts;
    for (const char* name : {"simsel_prefilter_engaged_total",
                             "simsel_prefilter_fallthrough_total",
                             "simsel_prefilter_admitted_total",
                             "simsel_prefilter_fp_total"}) {
      counts.push_back(reg.GetCounter(name)->Value());
    }
    return counts;
  };
  SelectOptions on, off;
  off.prefilter = false;
  auto sweep = [&](const char* mode) {
    DynamicSelector::Snapshot snap = dyn.snapshot();
    ASSERT_EQ(snap.main().prefilter(), nullptr) << mode;
    ASSERT_FALSE(snap.main().index().has_sketches()) << mode;
    ASSERT_NE(opted.snapshot().main().prefilter(), nullptr) << mode;
    std::vector<QueryResult> answers;
    const std::vector<uint64_t> before = tier_counts();
    for (const Case& c : cases) {
      PreparedQuery q = snap.Prepare(c.query);
      QueryResult a = snap.SelectPrepared(q, c.tau, c.kind, on);
      QueryResult b = snap.SelectPrepared(q, c.tau, c.kind, off);
      ExpectSameMatches(b.matches, a.matches, Ctx(c.kind, c.tau, mode));
      EXPECT_EQ(a.counters.ToString(), b.counters.ToString())
          << Ctx(c.kind, c.tau, mode);
      answers.push_back(std::move(a));
    }
    EXPECT_EQ(tier_counts(), before) << mode;
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      ExpectSameMatches(opted.Select(c.query, c.tau, c.kind, on).matches,
                        answers[i].matches,
                        Ctx(c.kind, c.tau, mode) + " vs opted-in");
    }
  };
  for (SetId s = 0; s < 25; ++s) {
    dyn.AddRecord(records[s * 7]);
    opted.AddRecord(records[s * 7]);
  }
  sweep("delta");
  dyn.Rebuild();
  opted.Rebuild();
  ASSERT_EQ(dyn.delta_size(), 0u);
  sweep("post-rebuild");
  for (SetId s = 0; s < 10; ++s) {
    dyn.AddRecord(records[s * 3]);
    opted.AddRecord(records[s * 3]);
  }
  sweep("delta-after-rebuild");
}

// A default build still writes the latest (v4) format, with the sketch
// flag cleared: the image is v3's plus that one flag byte, and it loads
// back without a tier.
TEST(DefaultBuildTest, LatestImageCarriesNoSketchSection) {
  const std::vector<std::string> records = MakeWordRecords(300, 14);
  const SimilaritySelector sel = SimilaritySelector::Build(records);
  const IndexFileStats v3 =
      sel.index().EncodedStats(InvertedIndex::kVersionBlocks);
  const IndexFileStats v4 =
      sel.index().EncodedStats(InvertedIndex::kVersionLatest);
  EXPECT_EQ(v4.sketch_payload_bytes, 0u);
  EXPECT_GE(v4.file_bytes, v3.file_bytes);
  EXPECT_LE(v4.file_bytes, v3.file_bytes + 8);

  const std::string path = ::testing::TempDir() + "default_build_v4.simsel";
  ASSERT_TRUE(sel.SaveIndex(path).ok());
  Result<SimilaritySelector> loaded =
      SimilaritySelector::BuildWithSavedIndex(records, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->index().has_sketches());
  EXPECT_EQ(loaded->prefilter(), nullptr);
  for (double tau : kTaus) {
    for (SetId s = 0; s < 10; ++s) {
      const std::string query = records[s * 17];
      ExpectSameMatches(sel.Select(query, tau).matches,
                        loaded->Select(query, tau).matches,
                        "reloaded tau=" + std::to_string(tau));
    }
  }
}

}  // namespace
}  // namespace simsel
