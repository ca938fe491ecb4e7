#include "core/sort_by_id.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "core/linear_scan.h"
#include "storage/buffer_pool.h"
#include "storage/posting_store.h"
#include "test_util.h"

// The accumulating merge behind SortByIdSelect. The corpus has more than
// 8192 sets, so list ids straddle the 4095/4096 and 8191/8192 seams (of the
// accumulator's bitmap words, among others); the marker words plant lists
// with gaps wider than 4096 ids and stretches holding a single posting.

namespace simsel {
namespace {

constexpr SetId kSeam = 4096;
constexpr size_t kRecords = 9300;
// Rare marker words: "qjxqjx" sits on both sides of each seam, "vwkvwk"
// only in records 3 and 9000 (one gap wider than kSeam ids).
constexpr SetId kSeamRecords[] = {7, 4095, 4096, 8191, 8192, 9250};
constexpr SetId kGapRecords[] = {3, 9000};

const SimilaritySelector& Selector() {
  static const SimilaritySelector* selector = [] {
    CorpusOptions corpus;
    corpus.num_records = kRecords;
    corpus.vocab_size = 3000;
    corpus.min_words = 1;
    corpus.max_words = 3;
    corpus.seed = 1801;
    std::vector<std::string> records = GenerateCorpus(corpus).records;
    for (SetId s : kSeamRecords) records[s] += " qjxqjx";
    for (SetId s : kGapRecords) records[s] += " vwkvwk";
    BuildOptions build;
    build.tokenizer.q = 3;
    build.build_sql_baseline = false;
    build.index.page_bytes = 512;
    return new SimilaritySelector(SimilaritySelector::Build(records, build));
  }();
  return *selector;
}

const PostingStore& Store() {
  static const PostingStore* store =
      new PostingStore(PostingStore::Build(Selector().index()));
  return *store;
}

// A query over exactly the dictionary tokens `ids` (distinct, tf 1).
PreparedQuery QueryOfTokens(const std::vector<TokenId>& ids) {
  const Dictionary& dict = Selector().collection().dictionary();
  std::vector<TokenCount> tokens;
  for (TokenId t : ids) tokens.push_back(TokenCount{dict.token(t), 1});
  return Selector().measure().PrepareQuery(tokens);
}

// `count` tokens spread evenly over the dictionary: frequent and rare
// lists alike.
PreparedQuery SpreadQuery(size_t count) {
  const size_t dict_size = Selector().collection().dictionary().size();
  std::vector<TokenId> ids;
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<TokenId>(i * dict_size / count));
  }
  return QueryOfTokens(ids);
}

PreparedQuery TextQuery(const std::vector<SetId>& records) {
  std::string text;
  for (SetId s : records) text += Selector().collection().text(s) + " ";
  return Selector().Prepare(text);
}

struct NamedQuery {
  std::string name;
  PreparedQuery q;
};

const std::vector<NamedQuery>& Queries() {
  static const std::vector<NamedQuery>* queries = [] {
    const Dictionary& dict = Selector().collection().dictionary();
    auto* out = new std::vector<NamedQuery>{
        {"one rare token", QueryOfTokens({*dict.Find("vwk")})},
        {"one seam token", QueryOfTokens({*dict.Find("qjx")})},
        {"seam records", TextQuery({4095, 4096, 8191, 8192})},
        {"gap records", TextQuery({3, 9000})},
        {"64 tokens", SpreadQuery(64)},
        {"65 tokens", SpreadQuery(65)},
        {"200 tokens", SpreadQuery(200)},
    };
    return out;
  }();
  return *queries;
}

// `partial` is sound: a prefix of `full` with identical scores, in
// ascending order, with every posting of the query lists either read or
// skipped. (A tripped merge reports nothing, the empty prefix.)
void ExpectSoundPrefix(const QueryResult& full, const QueryResult& partial,
                       const std::string& context) {
  EXPECT_TRUE(partial.status.ok()) << context;
  EXPECT_EQ(partial.counters.results, partial.matches.size()) << context;
  EXPECT_EQ(partial.counters.elements_total, full.counters.elements_total)
      << context;
  EXPECT_EQ(partial.counters.elements_read + partial.counters.elements_skipped,
            partial.counters.elements_total)
      << context;
  ASSERT_LE(partial.matches.size(), full.matches.size()) << context;
  std::vector<Match> prefix(full.matches.begin(),
                            full.matches.begin() + partial.matches.size());
  testing_util::ExpectSameMatches(prefix, partial.matches, context);
}

uint64_t ListPostings(const PreparedQuery& q) {
  uint64_t total = 0;
  for (TokenId t : q.tokens) total += Selector().index().ListSize(t);
  return total;
}

uint64_t ListPages(const PreparedQuery& q) {
  const size_t per_page = Selector().index().entries_per_page();
  uint64_t pages = 0;
  for (TokenId t : q.tokens) {
    pages += (Selector().index().ListSize(t) + per_page - 1) / per_page;
  }
  return pages;
}

// The ids of token `t`'s list, ascending.
std::vector<uint32_t> ListIds(TokenId t) {
  const InvertedIndex& index = Selector().index();
  std::vector<uint32_t> ids(index.LenIds(t), index.LenIds(t) + index.ListSize(t));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SortByIdKernelTest, FixtureCoversSeamsGapsAndQuerySizes) {
  const SimilaritySelector& sel = Selector();
  const Dictionary& dict = sel.collection().dictionary();
  // The marker grams are as rare as planted.
  const std::vector<uint32_t> gap_ids = ListIds(*dict.Find("vwk"));
  ASSERT_EQ(gap_ids.size(), 2u);
  EXPECT_GT(gap_ids[1] - gap_ids[0], kSeam);
  const std::vector<uint32_t> seam_ids = ListIds(*dict.Find("qjx"));
  ASSERT_EQ(seam_ids.size(), std::size(kSeamRecords));
  for (size_t i = 0; i < std::size(kSeamRecords); ++i) {
    EXPECT_EQ(seam_ids[i], kSeamRecords[i]);
  }
  EXPECT_GT(sel.collection().size(), 9000u);
  EXPECT_EQ(Queries()[0].q.tokens.size(), 1u);
  EXPECT_EQ(Queries()[1].q.tokens.size(), 1u);
  EXPECT_EQ(Queries()[4].q.tokens.size(), 64u);
  EXPECT_EQ(Queries()[5].q.tokens.size(), 65u);
  EXPECT_EQ(Queries()[6].q.tokens.size(), 200u);
}

TEST(SortByIdKernelTest, MemoryAndDiskMatchLinearScanBitForBit) {
  const SimilaritySelector& sel = Selector();
  for (const NamedQuery& nq : Queries()) {
    for (double tau : {0.05, 0.3, 0.6, 0.9}) {
      const std::string context = nq.name + " tau=" + std::to_string(tau);
      QueryResult scan =
          LinearScanSelect(sel.measure(), sel.collection(), nq.q, tau);
      QueryResult mem = SortByIdSelect(sel.index(), sel.measure(), nq.q, tau);
      testing_util::ExpectSameMatches(scan.matches, mem.matches, context + " mem");
      // A cold pool per query: every page of every list is one miss.
      BufferPool pool(4096);
      SelectOptions disk;
      disk.posting_store = &Store();
      disk.buffer_pool = &pool;
      QueryResult on_disk =
          sel.SelectPrepared(nq.q, tau, AlgorithmKind::kSortById, disk);
      testing_util::ExpectSameMatches(scan.matches, on_disk.matches, context + " disk");
      EXPECT_EQ(on_disk.counters.pool_hits, 0u) << context;
      EXPECT_EQ(on_disk.counters.pool_misses, ListPages(nq.q)) << context;
      // Every list is read completely: elements, and ⌈size/P⌉ sequential
      // pages per list.
      for (const QueryResult* r : {&mem, &on_disk}) {
        EXPECT_EQ(r->counters.elements_total, ListPostings(nq.q)) << context;
        EXPECT_EQ(r->counters.elements_read, r->counters.elements_total)
            << context;
        EXPECT_EQ(r->counters.elements_skipped, 0u) << context;
        EXPECT_EQ(r->counters.seq_page_reads, ListPages(nq.q)) << context;
        EXPECT_EQ(r->counters.results, r->matches.size()) << context;
      }
    }
  }
}

TEST(SortByIdKernelTest, ControlledPartialsAreSoundPrefixes) {
  const SimilaritySelector& sel = Selector();
  std::atomic<bool> cancel{true};
  for (const NamedQuery& nq : Queries()) {
    for (bool disk_mode : {false, true}) {
      SelectOptions base;
      if (disk_mode) base.posting_store = &Store();
      const double tau = 0.3;
      const std::string mode = disk_mode ? " disk" : " mem";
      QueryResult full =
          sel.SelectPrepared(nq.q, tau, AlgorithmKind::kSortById, base);
      for (uint64_t budget : {1u, 64u, 4096u, 32768u}) {
        SelectOptions opts = base;
        opts.control.max_elements_read = budget;
        QueryResult r =
            sel.SelectPrepared(nq.q, tau, AlgorithmKind::kSortById, opts);
        const std::string context =
            nq.name + mode + " budget " + std::to_string(budget);
        ExpectSoundPrefix(full, r, context);
        if (r.complete()) {
          EXPECT_LE(full.counters.elements_read, budget) << context;
          testing_util::ExpectSameMatches(full.matches, r.matches, context);
        } else {
          EXPECT_EQ(r.termination, Termination::kBudget) << context;
          EXPECT_GT(r.counters.elements_read, budget) << context;
        }
      }
      SelectOptions expired = base;
      expired.control.deadline =
          QueryControl::Clock::now() - std::chrono::milliseconds(1);
      QueryResult late =
          sel.SelectPrepared(nq.q, tau, AlgorithmKind::kSortById, expired);
      EXPECT_EQ(late.termination, Termination::kDeadline) << nq.name << mode;
      ExpectSoundPrefix(full, late, nq.name + mode + " deadline");

      SelectOptions cancelled = base;
      cancelled.control.cancel = &cancel;
      QueryResult stopped =
          sel.SelectPrepared(nq.q, tau, AlgorithmKind::kSortById, cancelled);
      EXPECT_EQ(stopped.termination, Termination::kCancelled)
          << nq.name << mode;
      ExpectSoundPrefix(full, stopped, nq.name + mode + " cancel");
    }
  }
}

TEST(SortByIdKernelTest, UntrippedControlChargesLikeNoControl) {
  // An active control that never trips changes neither the answer nor the
  // charges.
  const SimilaritySelector& sel = Selector();
  std::atomic<bool> cancel{false};
  for (const NamedQuery& nq : Queries()) {
    QueryResult plain = SortByIdSelect(sel.index(), sel.measure(), nq.q, 0.3);
    SelectOptions opts;
    opts.control.max_elements_read = 1'000'000'000;
    opts.control.deadline = QueryControl::DeadlineAfterMillis(60'000);
    opts.control.cancel = &cancel;
    QueryResult metered =
        SortByIdSelect(sel.index(), sel.measure(), nq.q, 0.3, opts);
    ASSERT_TRUE(metered.complete()) << nq.name;
    testing_util::ExpectSameMatches(plain.matches, metered.matches, nq.name);
    EXPECT_EQ(metered.counters.elements_read, plain.counters.elements_read)
        << nq.name;
    EXPECT_EQ(metered.counters.seq_page_reads, plain.counters.seq_page_reads)
        << nq.name;
  }
}

}  // namespace
}  // namespace simsel
