// Unit tests of the sketch prefilter tier: the threshold math, signature
// determinism, router soundness against brute force, the engage gate, and
// the adversarial small-k configuration (many sketch false positives, yet
// exactness preserved by verification).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/internal.h"
#include "core/selector.h"
#include "index/inverted_index.h"
#include "obs/metrics_registry.h"
#include "sketch/minhash.h"
#include "sketch/partition_router.h"
#include "sketch/prefilter.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MakeSelector;
using testing_util::MakeWordRecords;

TEST(SketchMathTest, ThresholdsMatchClosedForms) {
  sketch::SketchParams p;  // k=128, bands=64, rows=2, delta=1e-4
  ASSERT_TRUE(p.valid());
  EXPECT_DOUBLE_EQ(sketch::AdmissionEpsilon(p),
                   std::sqrt(std::log(1.0 / p.miss_bound) / (2.0 * p.k)));
  EXPECT_DOUBLE_EQ(
      sketch::EngageThreshold(p),
      std::pow(1.0 - std::pow(p.miss_bound, 1.0 / p.bands), 1.0 / p.rows));
  // The documented calibration: defaults engage near j ~ 0.26 with
  // admission slack ~ 0.13.
  EXPECT_NEAR(sketch::EngageThreshold(p), 0.263, 0.01);
  EXPECT_NEAR(sketch::AdmissionEpsilon(p), 0.134, 0.01);
  // More components tighten the slack; more bands lower the engage bar.
  sketch::SketchParams big = p;
  big.k = 512;
  big.bands = 256;
  EXPECT_LT(sketch::AdmissionEpsilon(big), sketch::AdmissionEpsilon(p));
  EXPECT_LT(sketch::EngageThreshold(big), sketch::EngageThreshold(p));
}

TEST(SketchMathTest, ParamValidation) {
  sketch::SketchParams p;
  EXPECT_TRUE(p.valid());
  p.bands = p.k / p.rows + 1;  // bands * rows > k
  EXPECT_FALSE(p.valid());
  p = sketch::SketchParams();
  p.k = 0;
  EXPECT_FALSE(p.valid());
  p = sketch::SketchParams();
  p.miss_bound = 1.0;
  EXPECT_FALSE(p.valid());
}

TEST(MinHashTest, SignatureIsDeterministicAndSeedSensitive) {
  sketch::SketchParams p;
  std::vector<uint64_t> seeds = sketch::ComponentSeeds(p);
  ASSERT_EQ(seeds.size(), p.k);
  std::vector<uint32_t> tokens = {3, 17, 42, 99, 1000};
  std::vector<uint64_t> a(p.k), b(p.k);
  sketch::ComputeSignature(tokens.data(), tokens.size(), seeds, a.data());
  sketch::ComputeSignature(tokens.data(), tokens.size(), seeds, b.data());
  EXPECT_EQ(a, b);
  // A different family seed yields a different signature.
  sketch::SketchParams other = p;
  other.seed ^= 1;
  std::vector<uint64_t> seeds2 = sketch::ComponentSeeds(other);
  sketch::ComputeSignature(tokens.data(), tokens.size(), seeds2, b.data());
  EXPECT_NE(a, b);
  // Empty set: the sentinel signature.
  sketch::ComputeSignature(nullptr, 0, seeds, b.data());
  for (uint64_t w : b) EXPECT_EQ(w, UINT64_MAX);
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  sketch::SketchParams p;
  p.k = 512;  // tight estimate for the test
  p.bands = 64;
  p.rows = 2;
  std::vector<uint64_t> seeds = sketch::ComponentSeeds(p);
  // |a| = 100, |b| = 100, overlap 60 -> J = 60 / 140.
  std::vector<uint32_t> a, b;
  for (uint32_t t = 0; t < 100; ++t) a.push_back(t);
  for (uint32_t t = 40; t < 140; ++t) b.push_back(t);
  std::vector<uint64_t> sa(p.k), sb(p.k);
  sketch::ComputeSignature(a.data(), a.size(), seeds, sa.data());
  sketch::ComputeSignature(b.data(), b.size(), seeds, sb.data());
  const double truth = 60.0 / 140.0;
  EXPECT_NEAR(sketch::EstimateJaccard(sa.data(), sb.data(), p.k), truth,
              3.0 * std::sqrt(truth * (1 - truth) / p.k));
  // Identical and disjoint sets hit the extremes exactly.
  EXPECT_DOUBLE_EQ(sketch::EstimateJaccard(sa.data(), sa.data(), p.k), 1.0);
}

// Token-major reference: every component updated per token. The
// component-major ComputeSignature must match it bit for bit.
void ReferenceSignature(const uint32_t* tokens, size_t n,
                        const std::vector<uint64_t>& seeds, uint64_t* out) {
  const size_t k = seeds.size();
  for (size_t i = 0; i < k; ++i) out[i] = UINT64_MAX;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t base = sketch::Mix64(tokens[j] + 0x9E3779B97F4A7C15ULL);
    for (size_t i = 0; i < k; ++i) {
      const uint64_t h = sketch::Mix64(base ^ seeds[i]);
      if (h < out[i]) out[i] = h;
    }
  }
}

TEST(MinHashTest, SignatureMatchesTokenMajorReference) {
  sketch::SketchParams p;
  const std::vector<uint64_t> seeds = sketch::ComponentSeeds(p);
  Rng rng(2718);
  std::vector<std::vector<uint32_t>> sets = {{}, {7}, {5, 5, 5}, {1, 9, 1, 4}};
  // Random sets around and well past the loop's 256-token chunk, half of
  // them drawn from a small range so tokens repeat.
  for (size_t n : {2, 31, 255, 256, 257, 600, 3000}) {
    for (uint64_t range : {uint64_t{1} << 32, uint64_t{64}}) {
      std::vector<uint32_t> tokens(n);
      for (uint32_t& t : tokens) {
        t = static_cast<uint32_t>(rng.NextBounded(range));
      }
      sets.push_back(std::move(tokens));
    }
  }
  for (const std::vector<uint32_t>& tokens : sets) {
    std::vector<uint64_t> expected(p.k), actual(p.k);
    ReferenceSignature(tokens.data(), tokens.size(), seeds, expected.data());
    sketch::ComputeSignature(tokens.data(), tokens.size(), seeds,
                             actual.data());
    EXPECT_EQ(expected, actual) << tokens.size() << " tokens";
  }
}

// std::sort over (key, row) is the order the band tables are defined by.
void ExpectSortsLikeStdSort(std::vector<sketch::BandEntry> entries,
                            const std::string& what) {
  std::vector<sketch::BandEntry> expected = entries;
  std::sort(expected.begin(), expected.end());
  std::vector<sketch::BandEntry> scratch;
  sketch::SortBandTable(entries.data(), entries.size(), &scratch);
  ASSERT_EQ(entries.size(), expected.size()) << what;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(entries[i].key, expected[i].key) << what << " at " << i;
    ASSERT_EQ(entries[i].row, expected[i].row) << what << " at " << i;
    ASSERT_EQ(entries[i].len, expected[i].len) << what << " at " << i;
  }
}

TEST(BandTableSortTest, MatchesStdSort) {
  Rng rng(31337);
  // Entries in row order (as the build writes them) or shuffled.
  auto make = [&rng](size_t n, bool shuffle, auto key_of) {
    std::vector<sketch::BandEntry> entries(n);
    for (size_t row = 0; row < n; ++row) {
      entries[row] = {key_of(row), static_cast<uint32_t>(row),
                      static_cast<float>(row % 7)};
    }
    if (shuffle) {
      for (size_t i = n; i > 1; --i) {
        std::swap(entries[i - 1], entries[rng.NextBounded(i)]);
      }
    }
    return entries;
  };
  const auto hashed = [](size_t row) { return sketch::Mix64(row); };
  const auto equal = [](size_t) { return uint64_t{0xABCDEF0123456789ULL}; };
  const auto shared_prefix = [&rng](size_t) {
    return (uint64_t{0xBEEF} << 48) | (rng.NextU64() >> 16);
  };
  const auto few = [](size_t row) { return sketch::Mix64(row % 5); };
  for (bool shuffle : {false, true}) {
    const std::string order = shuffle ? " shuffled" : " in row order";
    ExpectSortsLikeStdSort(make(0, shuffle, hashed), "n=0" + order);
    ExpectSortsLikeStdSort(make(1, shuffle, hashed), "n=1" + order);
    ExpectSortsLikeStdSort(make(3000, shuffle, equal), "all equal" + order);
    ExpectSortsLikeStdSort(make(3000, shuffle, shared_prefix),
                           "shared top 16 bits" + order);
    ExpectSortsLikeStdSort(make(3000, shuffle, few), "5 distinct" + order);
    for (size_t n : {2, 3, 100, 70000}) {
      ExpectSortsLikeStdSort(make(n, shuffle, hashed),
                             "distinct n=" + std::to_string(n) + order);
    }
  }
}

// The router's admission bound is an upper bound on the true score: no set
// scoring >= tau may live in a skipped partition. Brute-forced over every
// (query, tau) pair.
TEST(PartitionRouterTest, NeverSkipsAPartitionHoldingAnAnswer) {
  SimilaritySelector sel = MakeSelector(300, 2024, /*with_sql=*/false);
  const IdfMeasure& measure = sel.measure();
  const size_t n = sel.collection().size();
  sketch::PartitionRouter router = sketch::PartitionRouter::Build(
      measure, 0, static_cast<SetId>(n), /*partitions=*/16, /*buckets=*/32);
  ASSERT_GT(router.num_partitions(), 1u);
  for (double tau : {0.5, 0.7, 0.9}) {
    for (SetId s = 0; s < 40; ++s) {
      PreparedQuery q = sel.Prepare(sel.collection().text(s * 7));
      internal::LengthWindow win =
          internal::ComputeLengthWindow(q, tau, /*enabled=*/true);
      sketch::PartitionRouter::Route route =
          router.RouteQuery(q, tau, win.lo, win.hi);
      for (SetId cand = 0; cand < static_cast<SetId>(n); ++cand) {
        if (measure.Score(q, cand) < tau) continue;
        uint32_t part = router.PartitionOf(measure.set_length(cand));
        ASSERT_TRUE(route.any) << "tau=" << tau << " q=" << s;
        ASSERT_LT(part, route.mask.size());
        EXPECT_TRUE(route.mask[part])
            << "answer " << cand << " in skipped partition " << part
            << " tau=" << tau << " q=" << s;
      }
    }
  }
}

TEST(PartitionRouterTest, MaxSetSizeBelowIsAnUpperBound) {
  SimilaritySelector sel = MakeSelector(200, 7, /*with_sql=*/false);
  const IdfMeasure& measure = sel.measure();
  const size_t n = sel.collection().size();
  sketch::PartitionRouter router =
      sketch::PartitionRouter::Build(measure, 0, static_cast<SetId>(n), 8, 16);
  for (float hi : {0.0f, 2.0f, 5.0f, 1e9f}) {
    uint32_t bound = router.MaxSetSizeBelow(hi);
    for (SetId s = 0; s < static_cast<SetId>(n); ++s) {
      if (measure.set_length(s) <= hi) {
        EXPECT_LE(sel.collection().set(s).tokens.size(), bound);
      }
    }
  }
}

// The engage gate: high thresholds clear the Jaccard bar and the tier
// answers; low thresholds provably cannot and it falls through.
TEST(PrefilterPlanTest, EngagesAtHighTauFallsThroughAtLow) {
  SimilaritySelector sel = MakeSelector(400, 31, /*with_sql=*/false,
                                        /*with_sketches=*/true);
  ASSERT_NE(sel.prefilter(), nullptr);
  const sketch::Prefilter& pf = *sel.prefilter();
  size_t engaged_high = 0, probed = 0;
  for (SetId s = 0; s < 20; ++s) {
    PreparedQuery q = sel.Prepare(sel.collection().text(s * 11));
    sketch::Prefilter::Plan low = pf.PlanFor(q, 0.55);
    EXPECT_FALSE(low.engaged) << "q=" << s;
    EXPECT_LT(low.j_min, low.j_engage);
    sketch::Prefilter::Plan high = pf.PlanFor(q, 0.92);
    ++probed;
    if (high.engaged) ++engaged_high;
    EXPECT_DOUBLE_EQ(high.j_engage, sketch::EngageThreshold(pf.params()));
  }
  // The calibration claim of docs/SKETCHES.md: defaults engage at tau=0.9+
  // for typical queries.
  EXPECT_GT(engaged_high * 2, probed) << engaged_high << "/" << probed;
}

TEST(PrefilterPlanTest, IneligibleKindsBypassTheTier) {
  EXPECT_FALSE(sketch::PrefilterEligible(AlgorithmKind::kLinearScan));
  EXPECT_FALSE(sketch::PrefilterEligible(AlgorithmKind::kSql));
  EXPECT_FALSE(sketch::PrefilterEligible(AlgorithmKind::kSortById));
  EXPECT_TRUE(sketch::PrefilterEligible(AlgorithmKind::kSf));
  EXPECT_TRUE(sketch::PrefilterEligible(AlgorithmKind::kInra));
  EXPECT_TRUE(sketch::PrefilterEligible(AlgorithmKind::kHybrid));
}

TEST(PrefilterBuildTest, RejectsInvalidInputs) {
  SimilaritySelector sel = MakeSelector(50, 99, /*with_sql=*/false);
  sketch::SketchParams bad;
  bad.bands = bad.k + 1;
  bad.rows = 1;
  EXPECT_EQ(sketch::Prefilter::Build(sel.measure(), bad, nullptr, 0, 0),
            nullptr);
  sketch::SketchParams ok;
  // Empty range: nothing to filter.
  EXPECT_EQ(sketch::Prefilter::Build(sel.measure(), ok, nullptr, 5, 5),
            nullptr);
}

// The band tables built on a pool must equal the ones built on the calling
// thread: every engaged query then sees the same candidates in the same
// order, so matches and every tier counter agree exactly.
TEST(PrefilterBuildTest, ParallelBuildMatchesSerial) {
  const std::vector<std::string> records = MakeWordRecords(34000, 1717);
  auto build = [&records](size_t threads) {
    BuildOptions options;
    options.tokenizer.q = 3;
    options.index.build_threads = threads;
    options.index.build_sketches = true;
    return SimilaritySelector::Build(records, options);
  };
  const SimilaritySelector serial = build(1);
  const SimilaritySelector parallel = build(4);
  // Large enough that the automatic rule would build in parallel too.
  ASSERT_GE(serial.index().total_postings(), kParallelBuildThreshold);
  ASSERT_NE(serial.prefilter(), nullptr);
  ASSERT_NE(parallel.prefilter(), nullptr);
  EXPECT_EQ(serial.prefilter()->DerivedBytes(),
            parallel.prefilter()->DerivedBytes());
  size_t engaged = 0;
  for (SetId s = 0; s < 30; ++s) {
    const std::string text = serial.collection().text(s * 1103);
    const PreparedQuery qa = serial.Prepare(text);
    const PreparedQuery qb = parallel.Prepare(text);
    for (double tau : {0.7, 0.9}) {
      const std::string what = text + " tau=" + std::to_string(tau);
      QueryResult a, b;
      const bool ea = serial.prefilter()->TrySelect(qa, tau, {}, &a);
      const bool eb = parallel.prefilter()->TrySelect(qb, tau, {}, &b);
      ASSERT_EQ(ea, eb) << what;
      if (!ea) continue;
      if (tau == 0.9 && !a.matches.empty()) ++engaged;
      ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
      for (size_t i = 0; i < a.matches.size(); ++i) {
        EXPECT_EQ(a.matches[i].id, b.matches[i].id) << what;
        EXPECT_EQ(a.matches[i].score, b.matches[i].score) << what;
      }
      EXPECT_EQ(a.counters.hash_probes, b.counters.hash_probes) << what;
      EXPECT_EQ(a.counters.candidate_scan_steps,
                b.counters.candidate_scan_steps) << what;
      EXPECT_EQ(a.counters.candidate_inserts, b.counters.candidate_inserts)
          << what;
      EXPECT_EQ(a.counters.candidate_prunes, b.counters.candidate_prunes)
          << what;
      EXPECT_EQ(a.counters.rows_scanned, b.counters.rows_scanned) << what;
    }
  }
  EXPECT_GT(engaged, 5u);
}

TEST(PrefilterBuildTest, DisablingSketchesAtBuildDropsTheTier) {
  BuildOptions build;
  build.tokenizer.q = 3;
  build.index.build_sketches = false;
  SimilaritySelector sel =
      SimilaritySelector::Build(MakeWordRecords(60, 5), build);
  EXPECT_EQ(sel.prefilter(), nullptr);
  EXPECT_FALSE(sel.index().has_sketches());
  // Queries still work (the tier is an optimization, never a requirement).
  QueryResult r = sel.Select(sel.collection().text(3), 0.9);
  EXPECT_FALSE(r.matches.empty());
}

// Adversarial configuration: k = 16 components and single-row bands make
// the sketch estimate noisy and the banding trigger-happy — many false
// positives reach verification. Exactness must survive anyway, and the
// false positives must be visible in the measured counters.
TEST(PrefilterAdversarialTest, SmallKStaysExactAndMeasuresFalsePositives) {
  BuildOptions build;
  build.tokenizer.q = 3;
  build.index.build_sketches = true;
  build.index.sketch.k = 16;
  build.index.sketch.bands = 16;
  build.index.sketch.rows = 1;
  build.index.sketch.miss_bound = 1e-3;
  // Base words plus 1-2-edit variants: the variants sit at intermediate
  // similarity (high Jaccard to their base, exact score below a high τ) —
  // precisely the candidates a noisy sketch admits and exact verification
  // must reject.
  std::vector<std::string> bases = MakeWordRecords(40, 424);
  Rng rng(4321);
  std::vector<std::string> records;
  for (const std::string& base : bases) {
    records.push_back(base);
    for (int v = 0; v < 6; ++v) {
      records.push_back(ApplyModifications(base, 1 + v % 2, &rng));
    }
  }
  SimilaritySelector sel = SimilaritySelector::Build(records, build);
  ASSERT_NE(sel.prefilter(), nullptr);
  const sketch::Prefilter& pf = *sel.prefilter();
  // Single-row bands engage well below the default bar, and 16 components
  // leave a huge admission slack (~0.46): the tier runs often and admits
  // aggressively — maximum false-positive pressure on verification.
  EXPECT_LT(sketch::EngageThreshold(pf.params()), 0.4);
  EXPECT_GT(sketch::AdmissionEpsilon(pf.params()), 0.4);

  obs::Counter* admitted = obs::MetricsRegistry::Global().GetCounter(
      "simsel_prefilter_admitted_total");
  obs::Counter* fp =
      obs::MetricsRegistry::Global().GetCounter("simsel_prefilter_fp_total");
  const uint64_t admitted0 = admitted->Value();
  const uint64_t fp0 = fp->Value();

  SelectOptions off;
  off.prefilter = false;
  uint64_t engaged_results = 0;
  size_t engaged_queries = 0;
  for (const std::string& query : bases) {
    PreparedQuery q = sel.Prepare(query);
    for (double tau : {0.7, 0.9, 0.95}) {
      QueryResult with = sel.SelectPrepared(q, tau, AlgorithmKind::kSf, {});
      QueryResult without =
          sel.SelectPrepared(q, tau, AlgorithmKind::kSf, off);
      testing_util::ExpectSameMatches(without.matches, with.matches,
                                      "small-k tau=" + std::to_string(tau));
      sketch::Prefilter::Plan plan = pf.PlanFor(q, tau);
      if (plan.engaged && !plan.empty) {
        ++engaged_queries;
        engaged_results += with.matches.size();
      }
    }
  }
  ASSERT_GT(engaged_queries, 0u);
  const uint64_t admitted_delta = admitted->Value() - admitted0;
  const uint64_t fp_delta = fp->Value() - fp0;
  // Admission is a superset of the answers; the surplus is the measured
  // false positives, every one caught by verification (the parity loop).
  EXPECT_EQ(admitted_delta, engaged_results + fp_delta);
  EXPECT_GT(fp_delta, 0u);
}

// The delta screen must admit every true answer regardless of similarity
// level (it is Hoeffding-sound at any J, unlike the banding stage).
TEST(DeltaScreenTest, AdmitsEveryTrueAnswer) {
  SimilaritySelector sel = MakeSelector(250, 123, /*with_sql=*/false,
                                        /*with_sketches=*/true);
  ASSERT_NE(sel.prefilter(), nullptr);
  const sketch::Prefilter& pf = *sel.prefilter();
  const std::vector<uint64_t>& seeds = pf.seeds();
  for (double tau : {0.5, 0.8, 0.95}) {
    for (SetId s = 0; s < 30; ++s) {
      PreparedQuery q = sel.Prepare(sel.collection().text(s * 3));
      sketch::DeltaScreen screen = pf.MakeDeltaScreen(q, tau);
      if (!screen.active()) continue;
      for (SetId cand = 0; cand < 250; ++cand) {
        if (sel.measure().Score(q, cand) < tau) continue;
        const SetRecord& rec = sel.collection().set(cand);
        std::vector<uint64_t> sig(pf.params().k);
        sketch::ComputeSignature(rec.tokens.data(), rec.tokens.size(), seeds,
                                 sig.data());
        EXPECT_TRUE(screen.Admits(sig.data(),
                                  sel.measure().set_length(cand),
                                  rec.tokens.size()))
            << "answer " << cand << " rejected, tau=" << tau << " q=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace simsel
