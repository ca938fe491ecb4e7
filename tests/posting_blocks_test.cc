#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "index/list_cursor.h"
#include "test_util.h"

namespace simsel {
namespace {

// Block-summary and span-API edge cases: partial last blocks, windows that
// fall between blocks, tied length runs across a block seam, exhausted
// cursors, and accounting parity between span and per-posting consumption.

InvertedIndexOptions SmallBlocks() {
  InvertedIndexOptions opts;
  opts.block_postings = 8;
  opts.page_bytes = 128;  // 16 postings per page
  return opts;
}

struct Fixture {
  explicit Fixture(size_t n = 300, uint64_t seed = 77,
                   InvertedIndexOptions opts = SmallBlocks())
      : tokenizer(TokenizerOptions{.q = 3}),
        collection(Collection::Build(
            testing_util::MakeWordRecords(n, seed), tokenizer)),
        measure(collection),
        index(InvertedIndex::Build(collection, measure, opts)) {
    for (TokenId t = 0; t < index.num_tokens(); ++t) {
      if (index.ListSize(t) > index.ListSize(longest)) longest = t;
    }
    EXPECT_GT(index.ListSize(longest), 16u);
  }

  Tokenizer tokenizer;
  Collection collection;
  IdfMeasure measure;
  InvertedIndex index;
  TokenId longest = 0;
};

TEST(PostingBlocksTest, SummariesCoverEveryListIncludingPartialLastBlock) {
  Fixture f;
  const size_t bp = f.index.block_postings();
  ASSERT_EQ(bp, 8u);
  bool saw_partial = false;
  for (TokenId t = 0; t < f.index.num_tokens(); ++t) {
    const size_t n = f.index.ListSize(t);
    ASSERT_EQ(f.index.NumBlocks(t), (n + bp - 1) / bp) << "token " << t;
    if (n % bp != 0) saw_partial = true;
    const PostingBlockSummary* blocks = f.index.Blocks(t);
    const float* lens = f.index.LenLens(t);
    const uint32_t* ids = f.index.LenIds(t);
    for (size_t b = 0; b < f.index.NumBlocks(t); ++b) {
      const size_t first = b * bp;
      const size_t last = std::min(n, first + bp) - 1;
      EXPECT_EQ(blocks[b].min_len, lens[first]);
      EXPECT_EQ(blocks[b].max_len, lens[last]);
      EXPECT_EQ(blocks[b].first_id, ids[first]);
      EXPECT_EQ(blocks[b].last_id, ids[last]);
    }
  }
  EXPECT_TRUE(saw_partial) << "fixture never produced a partial last block";
}

TEST(PostingBlocksTest, SeekMatchesLinearScanEverywhere) {
  Fixture f;
  const float* lens = f.index.LenLens(f.longest);
  const size_t n = f.index.ListSize(f.longest);
  // Probe at every posting's length, between lengths, and past both ends.
  std::vector<float> targets(lens, lens + n);
  for (size_t i = 0; i + 1 < n; ++i) {
    targets.push_back((lens[i] + lens[i + 1]) / 2.0f);
  }
  targets.push_back(0.0f);
  targets.push_back(lens[n - 1] * 2.0f);
  for (float target : targets) {
    const size_t ge = static_cast<size_t>(
        std::lower_bound(lens, lens + n, target) - lens);
    const size_t gt = static_cast<size_t>(
        std::upper_bound(lens, lens + n, target) - lens);
    EXPECT_EQ(f.index.SeekFirstGE(f.longest, target), ge) << target;
    EXPECT_EQ(f.index.SeekFirstGT(f.longest, target), gt) << target;
  }
}

TEST(PostingBlocksTest, TiedLengthRunAcrossBlockSeam) {
  // 40 sets sharing one token; lengths tied in long runs straddling the
  // 8-posting block boundary: 10x len 1.0, 20x len 2.0, 10x len 3.0.
  std::vector<std::string> records(40, "zz zz");
  std::vector<float> set_lengths(40);
  for (size_t s = 0; s < 40; ++s) {
    set_lengths[s] = s < 10 ? 1.0f : (s < 30 ? 2.0f : 3.0f);
  }
  TokenizerOptions tok_opts;
  tok_opts.kind = TokenizerKind::kWord;
  Tokenizer tokenizer(tok_opts);
  Collection collection = Collection::Build(records, tokenizer);
  InvertedIndex index =
      InvertedIndex::BuildWithLengths(collection, set_lengths, SmallBlocks());
  const TokenId t = 0;
  ASSERT_EQ(index.ListSize(t), 40u);
  // The first len==2.0 posting sits at 10 — inside block 1, not at a seam —
  // and the run covers blocks 1..3 entirely.
  EXPECT_EQ(index.SeekFirstGE(t, 2.0f), 10u);
  EXPECT_EQ(index.SeekFirstGT(t, 2.0f), 30u);
  EXPECT_EQ(index.SeekFirstGE(t, 3.0f), 30u);
  EXPECT_EQ(index.SeekFirstGT(t, 3.0f), 40u);
  PostingRange window = index.WindowSpan(t, 2.0f, 2.0f);
  EXPECT_EQ(window.begin, 10u);
  EXPECT_EQ(window.end, 30u);
  // Ties are never split inconsistently: every posting in the window is 2.0.
  const float* lens = index.LenLens(t);
  for (size_t i = window.begin; i < window.end; ++i) {
    EXPECT_EQ(lens[i], 2.0f);
  }
  // A span bounded at the tied value stops exactly at the end of the run
  // (clipped to block granularity along the way).
  AccessCounters counters;
  ListCursor cursor(index, t, /*use_skip=*/true, &counters);
  cursor.SeekSpanStart(2.0f);
  size_t consumed = 0;
  for (;;) {
    PostingSpan span = cursor.NextSpan(index.block_postings(), 2.0f);
    if (span.empty()) break;
    for (size_t i = 0; i < span.count; ++i) EXPECT_EQ(span.lens[i], 2.0f);
    consumed += span.count;
  }
  EXPECT_EQ(consumed, 20u);
  cursor.MarkComplete();
  EXPECT_EQ(counters.elements_read + counters.elements_skipped,
            counters.elements_total);
}

TEST(PostingBlocksTest, WindowFallingBetweenTwoBlocks) {
  // Lengths 10,20,...,400: every length unique, 8 per block. A window
  // strictly between two present lengths — and between two BLOCKS when the
  // bounds straddle positions 8/9 — must come back empty or exact.
  std::vector<std::string> records(40, "zz zz");
  std::vector<float> set_lengths(40);
  for (size_t s = 0; s < 40; ++s) set_lengths[s] = 10.0f * (s + 1);
  TokenizerOptions tok_opts;
  tok_opts.kind = TokenizerKind::kWord;
  Tokenizer tokenizer(tok_opts);
  Collection collection = Collection::Build(records, tokenizer);
  InvertedIndex index =
      InvertedIndex::BuildWithLengths(collection, set_lengths, SmallBlocks());
  const TokenId t = 0;
  ASSERT_EQ(index.ListSize(t), 40u);
  // Block 0 ends at len 80, block 1 starts at len 90: a window entirely in
  // the gap between the blocks selects nothing.
  PostingRange gap = index.WindowSpan(t, 81.0f, 89.0f);
  EXPECT_TRUE(gap.empty());
  // A window spanning the seam picks exactly the two straddling postings.
  PostingRange seam = index.WindowSpan(t, 80.0f, 90.0f);
  EXPECT_EQ(seam.begin, 7u);
  EXPECT_EQ(seam.end, 9u);
  // Inverted bounds are empty, not negative-sized.
  PostingRange inverted = index.WindowSpan(t, 200.0f, 100.0f);
  EXPECT_TRUE(inverted.empty());
  EXPECT_EQ(inverted.size(), 0u);
  // A cursor seeked into the gap produces no span under the gap's hi bound.
  AccessCounters counters;
  ListCursor cursor(index, t, /*use_skip=*/true, &counters);
  cursor.SeekSpanStart(81.0f);
  EXPECT_TRUE(cursor.NextSpan(8, 89.0f).empty());
  EXPECT_TRUE(cursor.FrontierPast(89.0f));
  // The same cursor still serves the next window.
  PostingSpan span = cursor.NextSpan(8, 90.0f);
  ASSERT_EQ(span.count, 1u);
  EXPECT_EQ(span.lens[0], 90.0f);
  cursor.MarkComplete();
  EXPECT_EQ(counters.elements_read + counters.elements_skipped,
            counters.elements_total);
}

TEST(PostingBlocksTest, SpanWalkMatchesNextWalkAccounting) {
  Fixture f;
  for (TokenId t : {f.longest, static_cast<TokenId>(0)}) {
    AccessCounters by_next;
    {
      ListCursor cursor(f.index, t, /*use_skip=*/true, &by_next);
      for (cursor.Next(); !cursor.AtEnd(); cursor.Next()) {
      }
      cursor.MarkComplete();
    }
    uint64_t ids_sum_next = 0;
    const uint32_t* ids = f.index.LenIds(t);
    for (size_t i = 0; i < f.index.ListSize(t); ++i) ids_sum_next += ids[i];
    // Spans capped by the block boundary alone, then by max_count too.
    for (size_t max_count : {std::numeric_limits<size_t>::max(),
                             f.index.block_postings()}) {
      AccessCounters by_span;
      uint64_t ids_sum_span = 0;
      {
        ListCursor cursor(f.index, t, /*use_skip=*/true, &by_span);
        PostingSpan span;
        while (!(span = cursor.NextSpan(max_count)).empty()) {
          for (size_t i = 0; i < span.count; ++i) ids_sum_span += span.ids[i];
        }
        cursor.MarkComplete();
      }
      EXPECT_EQ(ids_sum_span, ids_sum_next) << "token " << t;
      // Identical element and page totals: spans charge what Next charges.
      EXPECT_EQ(by_span.elements_read, by_next.elements_read);
      EXPECT_EQ(by_span.elements_total, by_next.elements_total);
      EXPECT_EQ(by_span.seq_page_reads, by_next.seq_page_reads);
      EXPECT_EQ(by_span.rand_page_reads, by_next.rand_page_reads);
      EXPECT_EQ(by_span.elements_read + by_span.elements_skipped,
                by_span.elements_total);
    }
  }
}

TEST(PostingBlocksTest, SeekSpanStartNslParity) {
  // Without skips, SeekSpanStart reads-and-discards the prefix: same element
  // and page charges as the sequential SeekLengthGE walk up to the landing.
  Fixture f;
  const float* lens = f.index.LenLens(f.longest);
  const size_t n = f.index.ListSize(f.longest);
  const float target = lens[n / 2];
  AccessCounters stepwise;
  size_t landing;
  {
    ListCursor cursor(f.index, f.longest, /*use_skip=*/false, &stepwise);
    cursor.SeekLengthGE(target);
    landing = cursor.pos();
    cursor.MarkComplete();
  }
  AccessCounters spanwise;
  {
    ListCursor cursor(f.index, f.longest, /*use_skip=*/false, &spanwise);
    cursor.SeekSpanStart(target);
    PostingSpan span = cursor.NextSpan(1);
    ASSERT_EQ(span.count, 1u);
    EXPECT_EQ(span.lens[0], lens[landing]);
    EXPECT_EQ(cursor.pos(), landing);
    cursor.MarkComplete();
  }
  EXPECT_EQ(spanwise.elements_read, stepwise.elements_read);
  EXPECT_EQ(spanwise.seq_page_reads, stepwise.seq_page_reads);
  EXPECT_EQ(spanwise.rand_page_reads, 0u);
  // Both cursors MarkComplete at the same position, so the suffix charged
  // as skipped is identical; NSL itself skips nothing.
  EXPECT_EQ(spanwise.elements_skipped, stepwise.elements_skipped);
  EXPECT_EQ(spanwise.elements_read + spanwise.elements_skipped,
            spanwise.elements_total);
}

TEST(PostingBlocksTest, ExhaustedAndDegenerateSpans) {
  Fixture f;
  AccessCounters counters;
  ListCursor cursor(f.index, f.longest, /*use_skip=*/true, &counters);
  // max_count of zero returns nothing and charges nothing.
  EXPECT_TRUE(cursor.NextSpan(0).empty());
  EXPECT_EQ(counters.elements_read, 0u);
  // A bound below the first length returns nothing.
  const float first_len = f.index.LenLens(f.longest)[0];
  EXPECT_TRUE(cursor.NextSpan(8, first_len * 0.5f).empty());
  EXPECT_EQ(counters.elements_read, 0u);
  // Seek past the end: everything is skipped, and the cursor serves no span.
  cursor.SeekSpanStart(std::numeric_limits<float>::max());
  EXPECT_TRUE(cursor.NextSpan(8).empty());
  EXPECT_TRUE(cursor.FrontierPast(ListCursor::kNoLengthBound));
  EXPECT_EQ(cursor.FrontierLen(), ListCursor::kNoLengthBound);
  cursor.MarkComplete();
  EXPECT_EQ(counters.elements_read, 0u);
  EXPECT_EQ(counters.elements_skipped, counters.elements_total);
}

TEST(PostingBlocksTest, WindowSpanAgreesAcrossBlockSizes) {
  // The same corpus indexed at different block granularities yields the
  // same windows (block size is a layout knob, not a semantic one).
  Fixture small(200, 31, SmallBlocks());
  InvertedIndexOptions big = SmallBlocks();
  big.block_postings = 64;
  Fixture large(200, 31, big);
  ASSERT_EQ(small.index.num_tokens(), large.index.num_tokens());
  for (TokenId t = 0; t < small.index.num_tokens(); t += 7) {
    const float* lens = small.index.LenLens(t);
    const size_t n = small.index.ListSize(t);
    if (n == 0) continue;
    const float lo = lens[n / 4];
    const float hi = lens[(3 * n) / 4];
    PostingRange a = small.index.WindowSpan(t, lo, hi);
    PostingRange b = large.index.WindowSpan(t, lo, hi);
    EXPECT_EQ(a.begin, b.begin) << "token " << t;
    EXPECT_EQ(a.end, b.end) << "token " << t;
  }
}

}  // namespace
}  // namespace simsel
