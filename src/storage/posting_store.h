#ifndef SIMSEL_STORAGE_POSTING_STORE_H_
#define SIMSEL_STORAGE_POSTING_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block_codec.h"
#include "storage/paged_file.h"

namespace simsel {

class InvertedIndex;

/// Disk-resident image of the by-length posting lists.
///
/// The paper's inverted lists are "specialized disk resident indexes"; this
/// store is that representation: every list serialized as a run of
/// compressed posting blocks (storage/block_codec.h) aligned to the index's
/// summary blocks, lists page-aligned so one list's scan never pays for a
/// neighbor's pages. Cursors read through ReadBlock — an honest byte fetch
/// out of the page image followed by a block decode, charged to the
/// caller's PageReadStats — instead of dereferencing the in-memory arrays.
/// Wire a store into SelectOptions::posting_store (with an optional
/// BufferPool) to run any algorithm in disk mode.
///
/// Thread safety: ReadBlock never mutates the page image. Each reader (one
/// ListCursor per list per query) passes its own PageReadStats and its own
/// BlockDecodeScratch so the sequential-window simulation and the decode
/// staging stay per-reader; the store-level sequential/random totals are
/// relaxed atomics, so one store serves any number of concurrent queries.
/// Build/Save/Load are exclusive.
///
/// Persistence: the underlying PagedFile round-trips via Save/Load with the
/// list/block directory re-encoded in the image header.
///
/// Id bound: every posting id is below id_limit(). ReadBlock reports a
/// decoded block holding a larger id as Corruption, so the id-indexed
/// tables of the query kernels never see an out-of-range id, even from an
/// image that passed Load.
class PostingStore {
 public:
  /// Serializes `index`'s by-length lists. `page_bytes` is the modeled disk
  /// page size (defaults to the index's). Block granularity follows
  /// index.block_postings() so store blocks and summary blocks coincide.
  /// id_limit() is one past the index's largest posting id.
  static PostingStore Build(const InvertedIndex& index, size_t page_bytes = 0);

  PostingStore(PostingStore&& other) noexcept { *this = std::move(other); }
  PostingStore& operator=(PostingStore&& other) noexcept {
    file_ = std::move(other.file_);
    block_postings_ = other.block_postings_;
    id_limit_ = other.id_limit_;
    offsets_ = std::move(other.offsets_);
    counts_ = std::move(other.counts_);
    blk_index_ = std::move(other.blk_index_);
    blk_ends_ = std::move(other.blk_ends_);
    seq_reads_.store(other.seq_reads_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    rand_reads_.store(other.rand_reads_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  size_t num_tokens() const { return counts_.size(); }
  size_t ListSize(uint32_t token) const { return counts_[token]; }
  uint64_t total_postings() const;

  /// Postings per compressed block (matches the source index's summaries).
  size_t block_postings() const { return block_postings_; }

  /// Exclusive bound on the posting ids ReadBlock returns.
  size_t id_limit() const { return id_limit_; }

  /// Disk bytes including page-alignment padding.
  size_t SizeBytes() const { return file_.size(); }
  size_t page_bytes() const { return file_.page_size(); }

  /// Copies postings [first, first + count) of `token`'s list out of the
  /// page image: one physical read of the compressed blocks covering the
  /// range, then a per-block decode. `random` charges the touched pages as
  /// a random read (the first fetch after a seek); sequential continuation
  /// reads are free within an already-charged page. `reader`, when
  /// non-null, carries the caller's sequential window across calls (one per
  /// cursor; required for faithful accounting under concurrency — a null
  /// reader treats each call as freshly positioned). `scratch`, when
  /// non-null, provides the decode staging and caches the last decoded
  /// block, so re-reads within one block (e.g. spans clipped by a length
  /// bound) skip the decode — never the physical read, which is charged
  /// identically either way. A null scratch falls back to a thread-local.
  /// Returns the number of postings read. `status`, when non-null, receives
  /// the read outcome (OK, the injected / real failure, or Corruption for a
  /// block that does not decode or holds an id at or past id_limit()) and a
  /// failed call returns 0 postings (the destination buffers may hold
  /// blocks decoded before the failure). A null `status` keeps the
  /// historical contract: an unexpected read failure or undecodable block
  /// is a checked programming error (crash), appropriate for callers with
  /// no recovery path.
  size_t ReadBlock(uint32_t token, size_t first, size_t count, uint32_t* ids,
                   float* lens, bool random = false,
                   PageReadStats* reader = nullptr, Status* status = nullptr,
                   BlockDecodeScratch* scratch = nullptr) const;

  /// Aggregate physical page reads across every reader of this store
  /// (relaxed atomics; exact once readers have quiesced).
  uint64_t sequential_page_reads() const {
    return seq_reads_.load(std::memory_order_relaxed);
  }
  uint64_t random_page_reads() const {
    return rand_reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const {
    seq_reads_.store(0, std::memory_order_relaxed);
    rand_reads_.store(0, std::memory_order_relaxed);
  }

  /// Persists / restores the image (checksummed; see PagedFile). The
  /// checksum is no MAC, so Load takes the id bound from the caller — the
  /// number of sets of the collection the store will serve — rather than
  /// from the image.
  Status Save(const std::string& path) const;
  static Result<PostingStore> Load(const std::string& path, size_t num_sets);

  /// Attaches a scripted fault source to the underlying file (borrowed; null
  /// detaches). See FaultInjector.
  void set_fault_injector(FaultInjector* injector) {
    file_.set_fault_injector(injector);
  }

 private:
  PostingStore() : file_(PagedFile::kDefaultPageSize) {}

  PagedFile file_;
  size_t block_postings_ = 128;
  size_t id_limit_ = 0;
  std::vector<uint64_t> offsets_;  // byte offset of each list's first block
  std::vector<uint32_t> counts_;
  // Per-list block layout in CSR form: list t's blocks are
  // blk_ends_[blk_index_[t] .. blk_index_[t+1]), each entry the end byte
  // offset of that compressed block relative to the list start.
  std::vector<uint64_t> blk_index_;  // size num_tokens + 1
  std::vector<uint32_t> blk_ends_;
  // Store-wide totals pooled across concurrent readers.
  mutable std::atomic<uint64_t> seq_reads_{0};
  mutable std::atomic<uint64_t> rand_reads_{0};
};

}  // namespace simsel

#endif  // SIMSEL_STORAGE_POSTING_STORE_H_
