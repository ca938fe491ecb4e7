#ifndef SIMSEL_STORAGE_PAGED_FILE_H_
#define SIMSEL_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/fault_injector.h"

namespace simsel {

/// Per-reader page-read accounting: the sequential/random tallies plus the
/// sequential-window page the OS-readahead simulation depends on. The window
/// is *reader* state, not file state — two query threads scanning the same
/// file each have their own notion of "the page under the head" — so each
/// concurrent reader owns one of these and passes it to the const ReadAt
/// overload. Shareable PagedFile images stay immutable under reads.
struct PageReadStats {
  uint64_t seq_reads = 0;
  uint64_t rand_reads = 0;
  // Last page charged by a sequential read; reads within it are free.
  uint64_t last_seq_page = UINT64_MAX;

  void Reset() {
    seq_reads = 0;
    rand_reads = 0;
    last_seq_page = UINT64_MAX;
  }
};

/// The page sizes an image may declare (PagedFile and InvertedIndex
/// headers); anything else is Corruption.
constexpr uint64_t kMinPageBytes = 64;
constexpr uint64_t kMaxPageBytes = uint64_t{64} << 20;

/// In-memory image of a disk file with page-granular read accounting.
///
/// The paper's indexes are disk-resident; their cost model is dominated by
/// sequential vs random page reads. PagedFile simulates that: every ReadAt
/// charges the pages the range spans, and consecutive sequential reads that
/// stay on an already-charged page are free, mirroring OS readahead of a
/// hot page. Save/Load persist the image with an FNV-1a checksum so that
/// corruption is detected at load time.
///
/// Thread safety: the const ReadAt overload never mutates the file — all
/// accounting lands in the caller's PageReadStats — so any number of readers
/// may share one image concurrently. The convenience overload without a
/// stats argument charges the file's own instance stats and is for
/// single-threaded use (tests, tools). Append/Save/Load are exclusive.
class PagedFile {
 public:
  static constexpr size_t kDefaultPageSize = 4096;

  explicit PagedFile(size_t page_size = kDefaultPageSize);

  size_t page_size() const { return page_size_; }
  size_t size() const { return data_.size(); }
  size_t num_pages() const {
    return (data_.size() + page_size_ - 1) / page_size_;
  }

  /// Appends `len` bytes and returns the offset they were written at.
  uint64_t Append(const void* data, size_t len);

  /// Reads `len` bytes at `offset` into `dst`, charging the touched pages to
  /// `*stats` (`random` selects the counter and resets the sequential
  /// window). Const and side-effect-free on the file: safe to call from any
  /// number of threads concurrently, each with its own stats.
  Status ReadAt(uint64_t offset, size_t len, void* dst, bool random,
                PageReadStats* stats) const;

  /// Single-threaded convenience: charges the file's instance stats.
  Status ReadAt(uint64_t offset, size_t len, void* dst, bool random = false) {
    return ReadAt(offset, len, dst, random, &stats_);
  }

  /// Raw view for zero-copy decoding (does not count page reads).
  const std::vector<uint8_t>& contents() const { return data_; }
  std::vector<uint8_t>* mutable_contents() { return &data_; }

  uint64_t sequential_page_reads() const { return stats_.seq_reads; }
  uint64_t random_page_reads() const { return stats_.rand_reads; }
  void ResetCounters() { stats_.Reset(); }

  /// Writes `page_size | payload | fnv64(payload)` to `path`.
  Status SaveToFile(const std::string& path) const;

  /// Loads a file written by SaveToFile; returns Corruption on a bad
  /// checksum or truncated file.
  static Result<PagedFile> LoadFromFile(const std::string& path);

  /// Attaches a scripted fault source (borrowed, may be null to detach).
  /// While armed, ReadAt fails with Unavailable before touching accounting
  /// or the destination buffer. Tests only; production images leave this
  /// null, which costs one pointer test per read.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

 private:
  size_t page_size_;
  std::vector<uint8_t> data_;
  // Accounting for the stats-less ReadAt overload only.
  PageReadStats stats_;
  // Borrowed test hook; consulted at the top of ReadAt.
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace simsel

#endif  // SIMSEL_STORAGE_PAGED_FILE_H_
