#include "index/list_cursor.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "simd/kernels.h"

namespace simsel {

namespace {

// Process-wide cursor counters, resolved once. Per-posting accounting stays
// in plain per-cursor ints; only the flush at end-of-scan touches these.
struct CursorMetrics {
  obs::Counter* lists_opened;
  obs::Counter* postings_read;
  obs::Counter* postings_skipped;
  obs::Counter* read_faults;
};

const CursorMetrics& GetCursorMetrics() {
  static const CursorMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return CursorMetrics{reg.GetCounter("simsel_lists_opened_total"),
                         reg.GetCounter("simsel_postings_read_total"),
                         reg.GetCounter("simsel_postings_skipped_total"),
                         reg.GetCounter("simsel_cursor_read_faults_total")};
  }();
  return m;
}

}  // namespace

ListCursor::ListCursor(const InvertedIndex& index, TokenId token,
                       bool use_skip, AccessCounters* counters,
                       BufferPool* pool, const PostingStore* store)
    : index_(&index),
      ids_(index.LenIds(token)),
      lens_(index.LenLens(token)),
      size_(index.ListSize(token)),
      use_skip_(use_skip),
      counters_(counters),
      pool_(pool),
      store_(store),
      token_(token),
      entries_per_page_(index.entries_per_page()),
      page_bytes_(index.options().page_bytes) {
  GetCursorMetrics().lists_opened->Increment();
  if (counters_ != nullptr) counters_->elements_total += size_;
  if (store_ != nullptr) {
    SIMSEL_DCHECK(store_->ListSize(token) == size_);
    // Buffer one compressed block: the store's decode granularity, which
    // Build aligned with the index's summary blocks.
    SIMSEL_DCHECK(store_->block_postings() == index.block_postings());
    blk_ids_.resize(store_->block_postings());
    blk_lens_.resize(store_->block_postings());
  }
}

bool ListCursor::EnsureBlock(bool random) {
  if (store_ == nullptr) return true;
  size_t pos = static_cast<size_t>(pos_);
  if (blk_count_ > 0 && pos >= blk_first_ && pos < blk_first_ + blk_count_) {
    return true;
  }
  size_t block = blk_ids_.size();
  blk_first_ = pos - pos % block;
  Status st;
  blk_count_ = store_->ReadBlock(token_, blk_first_, block, blk_ids_.data(),
                                 blk_lens_.data(), random, &store_reads_, &st,
                                 &scratch_);
  if (!st.ok()) {
    Fail(std::move(st), pos);
    return false;
  }
  SIMSEL_DCHECK(blk_count_ > 0);
  return true;
}

void ListCursor::Fail(Status st, size_t first_unread) {
  status_ = std::move(st);
  GetCursorMetrics().read_faults->Increment();
  blk_count_ = 0;
  if (!completed_) {
    completed_ = true;
    if (first_unread < size_) {
      local_skipped_ += size_ - first_unread;
      if (counters_ != nullptr) {
        counters_->elements_skipped += size_ - first_unread;
      }
    }
    FlushMetrics();
  }
  // Park at end: AtEnd() true, frontier +inf, every further call a no-op.
  pos_ = static_cast<int64_t>(size_);
}

void ListCursor::TouchPool(int64_t page) {
  if (pool_ == nullptr) return;
  bool hit = pool_->Touch(
      BufferPool::PageKey(token_, static_cast<uint64_t>(page)));
  if (counters_ != nullptr) {
    if (hit) {
      ++counters_->pool_hits;
    } else {
      ++counters_->pool_misses;
    }
  }
}

void ListCursor::FlushMetrics() {
  if (metrics_flushed_) return;
  metrics_flushed_ = true;
  const CursorMetrics& m = GetCursorMetrics();
  if (local_reads_ > 0) m.postings_read->Increment(local_reads_);
  if (local_skipped_ > 0) m.postings_skipped->Increment(local_skipped_);
}

void ListCursor::ChargeRead() {
  ++local_reads_;
  if (counters_ == nullptr && pool_ == nullptr) return;
  if (counters_ != nullptr) ++counters_->elements_read;
  int64_t page = pos_ / static_cast<int64_t>(entries_per_page_);
  if (page != last_page_) {
    if (counters_ != nullptr) ++counters_->seq_page_reads;
    TouchPool(page);
    last_page_ = page;
  }
}

void ListCursor::ChargeSpan(size_t start, size_t end) {
  if (end <= start) return;
  const size_t k = end - start;
  local_reads_ += k;
  bool random_landing = pending_random_;
  pending_random_ = false;
  if (counters_ == nullptr && pool_ == nullptr) return;
  if (counters_ != nullptr) counters_->elements_read += k;
  // Page accounting, identical to k consecutive ChargeRead() calls: one
  // charge per page transition, except that a landing page reached through a
  // summary seek is a random read (the seek path charged it already when
  // random_landing, see SeekSpanStart) -- here the landing page is charged
  // as random instead of sequential exactly when the jump repositioned the
  // sequential window.
  const int64_t first_page =
      static_cast<int64_t>(start / entries_per_page_);
  const int64_t last_span_page =
      static_cast<int64_t>((end - 1) / entries_per_page_);
  for (int64_t page = first_page; page <= last_span_page; ++page) {
    if (page == first_page && random_landing) {
      if (counters_ != nullptr) ++counters_->rand_page_reads;
      TouchPool(page);
      last_page_ = page;
      continue;
    }
    if (page != last_page_) {
      if (counters_ != nullptr) ++counters_->seq_page_reads;
      TouchPool(page);
      last_page_ = page;
    }
  }
}

void ListCursor::Next() {
  if (AtEnd()) return;
  ++pos_;
  if (!AtEnd()) {
    if (!EnsureBlock(/*random=*/pending_random_)) return;
    if (pending_random_) {
      // A span-seek landed just before this posting; its page is reached by
      // a random jump, mirroring the landing read of SeekLengthGE.
      pending_random_ = false;
      ++local_reads_;
      last_page_ = pos_ / static_cast<int64_t>(entries_per_page_);
      TouchPool(last_page_);
      if (counters_ != nullptr) {
        ++counters_->elements_read;
        ++counters_->rand_page_reads;
      }
      return;
    }
    ChargeRead();
  }
}

void ListCursor::SeekLengthGE(float target) {
  if (AtEnd()) return;
  if (pos_ >= 0 && len() >= target) return;  // already positioned past
  size_t start = static_cast<size_t>(pos_ + 1);
  if (use_skip_) {
    uint64_t probes = 0;
    size_t dest = index_->SeekFirstGE(token_, target, &probes);
    if (dest < start) dest = start;  // forward only
    local_skipped_ += dest - start;
    if (counters_ != nullptr) {
      counters_->elements_skipped += dest - start;
      // The descent reads `probes` block summaries; charge the pages they
      // occupy as random reads, at least one per consulted seek.
      counters_->rand_page_reads +=
          1 + (probes * sizeof(PostingBlockSummary)) / page_bytes_;
    }
    pos_ = static_cast<int64_t>(dest);
    if (!AtEnd()) {
      // Landing after a random jump repositions the sequential window.
      if (!EnsureBlock(/*random=*/true)) return;
      last_page_ = pos_ / static_cast<int64_t>(entries_per_page_);
      TouchPool(last_page_);
      ++local_reads_;
      if (counters_ != nullptr) {
        ++counters_->elements_read;
        ++counters_->rand_page_reads;
      }
    }
    return;
  }
  // No skips: read-and-discard sequentially (the NSL ablation).
  do {
    ++pos_;
    if (AtEnd()) return;
    if (!EnsureBlock(/*random=*/false)) return;
    ChargeRead();
  } while (len() < target);
}

void ListCursor::SeekSpanStart(float target) {
  const size_t start = static_cast<size_t>(pos_ + 1);
  if (start >= size_ || lens_[start] >= target) return;
  if (use_skip_) {
    uint64_t probes = 0;
    size_t dest = index_->SeekFirstGE(token_, target, &probes);
    if (dest < start) dest = start;  // forward only
    local_skipped_ += dest - start;
    if (counters_ != nullptr) {
      counters_->elements_skipped += dest - start;
      counters_->rand_page_reads +=
          1 + (probes * sizeof(PostingBlockSummary)) / page_bytes_;
    }
    pos_ = static_cast<int64_t>(dest) - 1;
    // The landing posting is not read here; the first page the next span
    // (or Next) touches is the random-jump target.
    pending_random_ = dest < size_;
    return;
  }
  // NSL: the prefix below the window is read and discarded. One bulk charge,
  // same totals as stepping through it.
  const size_t dest = static_cast<size_t>(
      std::lower_bound(lens_ + start, lens_ + size_, target) - lens_);
  if (store_ != nullptr) {
    // Pull the discarded pages through the store sequentially.
    size_t p = start;
    while (p < dest) {
      pos_ = static_cast<int64_t>(p);
      if (!EnsureBlock(/*random=*/false)) {
        // Fail() charged [p, size) as skipped; charge the part actually
        // pulled before the fault so read+skipped still covers the list.
        ChargeSpan(start, p);
        pos_ = static_cast<int64_t>(size_);
        return;
      }
      p = blk_first_ + blk_count_;
    }
  }
  ChargeSpan(start, dest);
  pos_ = static_cast<int64_t>(dest) - 1;
}

PostingSpan ListCursor::NextSpan(size_t max_count, float max_len) {
  PostingSpan span;
  const size_t start = static_cast<size_t>(pos_ + 1);
  if (start >= size_ || max_count == 0) return span;
  if (lens_[start] > max_len) return span;

  // Clip to the enclosing summary block so a span never straddles blocks.
  const size_t bp = index_->block_postings();
  size_t end = std::min(size_, (start / bp + 1) * bp);
  if (max_count < end - start) end = start + max_count;
  if (max_len != kNoLengthBound) {
    const PostingBlockSummary& h = index_->Blocks(token_)[start / bp];
    if (h.max_len > max_len) {
      // Mixed block: find the true end of the qualifying run (count_le over
      // the sorted lengths == upper_bound index).
      end = start +
            simd::Kernels().count_le_f32(lens_ + start, end - start, max_len);
    }
  }
  if (end <= start) return span;

  if (store_ != nullptr) {
    // Disk mode: fetch the whole span out of the page image in one read, so
    // span boundaries — and therefore every algorithm's batching decisions —
    // are identical to memory mode.
    const size_t count = end - start;
    if (span_ids_.size() < count) {
      span_ids_.resize(count);
      span_lens_.resize(count);
    }
    Status st;
    size_t got = store_->ReadBlock(token_, start, count, span_ids_.data(),
                                   span_lens_.data(), pending_random_,
                                   &store_reads_, &st, &scratch_);
    if (!st.ok()) {
      Fail(std::move(st), start);
      return span;  // empty; the caller's loop sees an exhausted list
    }
    SIMSEL_DCHECK(got == count);
    (void)got;
    span.ids = span_ids_.data();
    span.lens = span_lens_.data();
  } else {
    span.ids = ids_ + start;
    span.lens = lens_ + start;
  }
  span.count = end - start;
  ChargeSpan(start, end);
  pos_ = static_cast<int64_t>(end) - 1;
  return span;
}

void ListCursor::MarkComplete() {
  if (completed_) return;
  completed_ = true;
  if (!AtEnd()) {
    size_t next_unread = static_cast<size_t>(pos_ + 1);
    if (next_unread < size_) {
      local_skipped_ += size_ - next_unread;
      if (counters_ != nullptr) {
        counters_->elements_skipped += size_ - next_unread;
      }
    }
  }
  pos_ = static_cast<int64_t>(size_);
  FlushMetrics();
}

}  // namespace simsel
