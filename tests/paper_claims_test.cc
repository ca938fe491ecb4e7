#include <gtest/gtest.h>

#include "test_util.h"

namespace simsel {
namespace {

// Tests pinning specific claims from the paper's narrative, on data crafted
// to exhibit them.

// Every claim here is about the exact kernels' access patterns, so the
// sketch tier (which answers eligible queries without touching the lists)
// is pinned off throughout.
SelectOptions Kernels() {
  SelectOptions options;
  options.prefilter = false;
  return options;
}

// Section V: "Assume that set lengths are unique and τ = 1. The Length
// Boundedness property will restrict the search space to only one set.
// Clearly, in this case we can construct examples where NRA will have to
// examine every single set in the database instead." (Lemma 1's intuition.)
TEST(PaperClaimsTest, UniqueLengthsAtTauOne) {
  // Records of strictly growing token counts -> strictly growing lengths.
  std::vector<std::string> records;
  std::string rec;
  for (int i = 0; i < 40; ++i) {
    rec += static_cast<char>('a' + (i % 26));
    rec += static_cast<char>('a' + ((i * 7) % 26));
    records.push_back(rec);  // prefixes: every set strictly contains prior
  }
  BuildOptions build;
  SimilaritySelector sel = SimilaritySelector::Build(records, build);
  PreparedQuery q = sel.Prepare(records[20]);
  const double tau = 0.9999;

  QueryResult inra = sel.SelectPrepared(q, tau, AlgorithmKind::kInra, Kernels());
  QueryResult nra = sel.SelectPrepared(q, tau, AlgorithmKind::kNra, Kernels());
  // Both find exactly the record itself.
  ASSERT_EQ(inra.matches.size(), 1u);
  EXPECT_EQ(inra.matches[0].id, 20u);
  ASSERT_EQ(nra.matches.size(), 1u);
  // The LB window isolates a tiny slice; classic NRA reads arbitrarily more.
  EXPECT_LT(inra.counters.elements_read * 4, nra.counters.elements_read)
      << "iNRA read " << inra.counters.elements_read << ", NRA read "
      << nra.counters.elements_read;
}

// Section VI: SF reads shorter (rare) lists first, so in the typical case
// it reads no more elements than iNRA (Lemma 2's direction, which dominates
// in practice per the paper's Figure 6/7).
TEST(PaperClaimsTest, SfUsuallyReadsNoMoreThanInra) {
  SimilaritySelector sel = testing_util::MakeSelector(400, 1001, false);
  size_t sf_wins = 0, ties = 0, inra_wins = 0;
  for (SetId s = 0; s < 60; ++s) {
    PreparedQuery q = sel.Prepare(sel.collection().text(s * 5));
    uint64_t sf =
        sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, Kernels()).counters
            .elements_read;
    uint64_t inra =
        sel.SelectPrepared(q, 0.8, AlgorithmKind::kInra, Kernels()).counters
            .elements_read;
    if (sf < inra) {
      ++sf_wins;
    } else if (sf == inra) {
      ++ties;
    } else {
      ++inra_wins;
    }
  }
  // The depth-first strategy should win or tie the vast majority of
  // instances (the paper's Lemma 3 shows adversarial exceptions exist).
  EXPECT_GT(sf_wins + ties, inra_wins * 3)
      << "sf_wins=" << sf_wins << " ties=" << ties
      << " inra_wins=" << inra_wins;
}

// Section VI, Figure 3's moral: with lists of very different idf, SF skips
// most of the long (frequent-token) lists. Set lengths must actually vary —
// with identical lengths neither LB nor OP can discriminate (SF then
// legitimately reads the whole frequent list to resolve candidates).
TEST(PaperClaimsTest, SfSkipsLongFrequentLists) {
  // One token in every record ("zz"), plus 1-5 per-record unique tokens so
  // set lengths take five distinct values.
  std::vector<std::string> records;
  for (int i = 0; i < 200; ++i) {
    std::string rec = "zz";
    for (int w = 0; w <= i % 5; ++w) {
      rec += " u" + std::to_string(i) + static_cast<char>('a' + w);
    }
    records.push_back(rec);
  }
  BuildOptions build;
  build.tokenizer.kind = TokenizerKind::kWord;
  SimilaritySelector sel = SimilaritySelector::Build(records, build);
  PreparedQuery q = sel.Prepare(records[7]);
  QueryResult r = sel.SelectPrepared(q, 0.9, AlgorithmKind::kSf, Kernels());
  ASSERT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches[0].id, 7u);
  // The "zz" list has 200 entries; the window + λ cutoffs must confine SF
  // to a small slice of it.
  EXPECT_GT(r.counters.elements_skipped, r.counters.elements_read)
      << "read " << r.counters.elements_read << " of "
      << r.counters.elements_total;
  EXPECT_LT(r.counters.elements_read, 100u);
}

// Section VIII-B: sort-by-id's cost is flat in the threshold; the improved
// algorithms get cheaper as τ rises.
TEST(PaperClaimsTest, SortByIdFlatInThreshold) {
  SimilaritySelector sel = testing_util::MakeSelector(300, 1003, false);
  PreparedQuery q = sel.Prepare(sel.collection().text(11));
  uint64_t low =
      sel.SelectPrepared(q, 0.5, AlgorithmKind::kSortById, Kernels()).counters
          .elements_read;
  uint64_t high =
      sel.SelectPrepared(q, 0.95, AlgorithmKind::kSortById, Kernels()).counters
          .elements_read;
  EXPECT_EQ(low, high);
  uint64_t sf_low = sel.SelectPrepared(q, 0.5, AlgorithmKind::kSf, Kernels())
                        .counters.elements_read;
  uint64_t sf_high = sel.SelectPrepared(q, 0.95, AlgorithmKind::kSf, Kernels())
                         .counters.elements_read;
  EXPECT_LE(sf_high, sf_low);
  EXPECT_LT(sf_high, high);
}

// Section II: exact matches always score 1 under the normalized measure —
// "with length normalization an exact match always has score equal to 1".
TEST(PaperClaimsTest, ExactMatchScoresOne) {
  SimilaritySelector sel = testing_util::MakeSelector(200, 1005, false);
  for (SetId s = 0; s < 20; ++s) {
    PreparedQuery q = sel.Prepare(sel.collection().text(s));
    EXPECT_NEAR(sel.measure().Score(q, s), 1.0, 1e-5);
  }
}

// Section VIII-C: "iTA has the largest pruning power ... Nevertheless, the
// random I/Os come at a cost" — its probes show up as random page reads.
TEST(PaperClaimsTest, ItaTradesProbesForPruning) {
  SimilaritySelector sel = testing_util::MakeSelector(400, 1007, true);
  AccessCounters ita, sf;
  for (SetId s = 0; s < 20; ++s) {
    PreparedQuery q = sel.Prepare(sel.collection().text(s * 9));
    ita.Merge(sel.SelectPrepared(q, 0.8, AlgorithmKind::kIta, Kernels()).counters);
    sf.Merge(sel.SelectPrepared(q, 0.8, AlgorithmKind::kSf, Kernels()).counters);
  }
  EXPECT_GE(ita.PruningPower(), sf.PruningPower() - 0.02);
  EXPECT_GT(ita.hash_probes, 0u);
  EXPECT_GT(ita.rand_page_reads, sf.rand_page_reads);
  EXPECT_EQ(sf.hash_probes, 0u);
}

}  // namespace
}  // namespace simsel
