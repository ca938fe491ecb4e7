#ifndef SIMSEL_INDEX_INVERTED_INDEX_H_
#define SIMSEL_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/collection.h"
#include "sim/idf.h"
#include "sketch/minhash.h"

namespace simsel {

class ThreadPool;

/// Construction knobs for the inverted index (Section VIII-A's setup).
struct InvertedIndexOptions {
  /// Modeled disk page size for list storage (drives page accounting).
  size_t page_bytes = 4096;
  /// Posting-block granularity of the per-block summaries: every by-length
  /// list is covered by fixed-size blocks of this many postings, each with a
  /// {min_len, max_len, first_id, last_id} summary. Length seeks binary-
  /// search the summaries (they are the paper's skip lists) and span reads
  /// never cross a block boundary. At most kMaxBlockPostings.
  size_t block_postings = 128;
  /// Worker threads for the build passes (per-token sorting and summaries;
  /// per-set signatures; the prefilter's band tables).
  /// 0 = auto: parallel only when the index is large enough to amortize
  /// spawning workers (see MakeBuildPool). The result is identical either
  /// way (every pass is deterministic per token, set or band).
  size_t build_threads = 0;
  /// Ignored: TA/iTA probe the block summaries, so no index builds a hash.
  /// Stays only until simbench's references to it are dropped (ROADMAP
  /// item 1's benchmark-kind change).
  bool build_hash = true;
  /// Build per-set MinHash signatures for the sketch prefilter tier
  /// (src/sketch/). Off by default: every admitted set still needs exact
  /// verification, and the Theorem-1 window already bounds the exact
  /// kernels, so the tier costs more time and bytes than it saves (see
  /// docs/SKETCHES.md). Persisted in the version-4 index image; without
  /// them SelectOptions::prefilter silently falls through to the exact
  /// kernels.
  bool build_sketches = false;
  /// Sketch family parameters (see sketch/minhash.h). Fixed default seed so
  /// two builds of one collection produce identical sketch sections.
  sketch::SketchParams sketch;
};

/// Below this many postings the build passes run serially: spawning workers
/// would cost more than the work. The unit-test corpora, shards of a few
/// tens of thousands of sets and serving-sized dynamic rebuilds all land
/// here, which keeps their builds deterministic under sanitizers and starts
/// no threads beside the serving ones.
inline constexpr uint64_t kParallelBuildThreshold = 1u << 18;

/// The worker pool of one build over `total_postings` postings, or null to
/// run it on the calling thread: options.build_threads workers when set
/// (1 = serial), else hardware concurrency once the index reaches
/// kParallelBuildThreshold. Shared by the index build and the prefilter
/// built over it (sketch::AttachPrefilter), so both follow one rule.
std::unique_ptr<ThreadPool> MakeBuildPool(const InvertedIndexOptions& options,
                                          uint64_t total_postings);

/// Summary of one fixed-size block of by-length postings. Because the list
/// is sorted by (len, id), min/max_len of consecutive blocks are themselves
/// sorted, so a binary search over summaries lands the Theorem-1 window in
/// O(log #blocks); max_len also clips a span's length bound in O(1) when
/// the whole block qualifies. first/last_id bound the ids a block can
/// contribute (useful to merge candidates against a block at a time).
struct PostingBlockSummary {
  float min_len;
  float max_len;
  uint32_t first_id;
  uint32_t last_id;
};

/// A half-open range [begin, end) of positions in one by-length list.
struct PostingRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// Byte accounting of one serialized index file (see Save): the whole file
/// plus the posting payloads alone — the compression-sensitive part the
/// Figure 5 bench and the bench meta track across format versions.
struct IndexFileStats {
  uint64_t file_bytes = 0;
  /// By-length posting payload (ids + lengths, excluding headers/offsets).
  uint64_t len_payload_bytes = 0;
  /// MinHash signature payload (version >= 4 with sketches built; else 0).
  uint64_t sketch_payload_bytes = 0;
};

/// The paper's specialized index (Section III-B): one inverted list per
/// token, sorted by increasing (len(s), id). Since len(q) and idf(q^i) are
/// constant per list, this is exactly decreasing per-list contribution w_i
/// order — the order the TA/NRA-family algorithms consume (Figure 3). The
/// sort-by-id merge (Figure 2) reads every posting, so it accumulates these
/// lists by id instead of keeping a second, id-sorted copy.
///
/// Each by-length list carries block summaries. They are the skip
/// structure (a seek to the Length Boundedness window binary-searches them)
/// and serve TA-style random access too: a candidate arrives with its
/// len(s), so "is s in list t?" is a search by (len, id) (see Contains).
///
/// Lists are stored struct-of-arrays in CSR layout: ids and lengths in two
/// flat arrays with a shared per-token offset table.
class InvertedIndex {
 public:
  /// Builds the index for `collection` with lengths from `measure`.
  static InvertedIndex Build(const Collection& collection,
                             const IdfMeasure& measure,
                             InvertedIndexOptions options = {});

  /// Builds with explicit per-set normalized lengths (`set_lengths[s]` for
  /// set s). Used to index other measures of the family — e.g. TF/IDF
  /// selection stores ||s|| with tf weighting (see core/tfidf_select.h).
  static InvertedIndex BuildWithLengths(const Collection& collection,
                                        const std::vector<float>& set_lengths,
                                        InvertedIndexOptions options = {});

  /// Builds a shard index over the contiguous global id range [begin, end):
  /// the token space is the collection's full dictionary, the postings are
  /// only those of sets in the range, and they carry their *global* set ids
  /// and lengths from the *global* measure. Scoring against a shard index is
  /// therefore bit-identical to scoring against the full index — df/idf and
  /// len(s) are collection-wide statistics — which is what lets the serving
  /// layer (serve/sharded_selector.h) merge per-shard answers into exactly
  /// the single-index answer. Tokens absent from the range simply get empty
  /// lists.
  static InvertedIndex BuildShard(const Collection& collection,
                                  const IdfMeasure& measure, SetId begin,
                                  SetId end, InvertedIndexOptions options = {});

  size_t num_tokens() const { return offsets_.size() - 1; }
  uint64_t total_postings() const { return len_ids_.size(); }
  const InvertedIndexOptions& options() const { return options_; }

  /// Postings per modeled page (8 bytes per posting).
  size_t entries_per_page() const { return options_.page_bytes / 8; }

  size_t ListSize(TokenId t) const { return offsets_[t + 1] - offsets_[t]; }

  /// By-length list of token `t` (parallel arrays, ListSize(t) entries).
  const uint32_t* LenIds(TokenId t) const { return len_ids_.data() + offsets_[t]; }
  const float* LenLens(TokenId t) const { return len_lens_.data() + offsets_[t]; }

  /// Block-summary layer over the by-length lists (always built).
  size_t block_postings() const { return options_.block_postings; }
  size_t NumBlocks(TokenId t) const {
    return block_offsets_[t + 1] - block_offsets_[t];
  }
  const PostingBlockSummary* Blocks(TokenId t) const {
    return blocks_.data() + block_offsets_[t];
  }

  /// First position in `t`'s by-length list with len >= target (ListSize(t)
  /// if none): binary search over the block summaries, then over the landing
  /// block. `probes`, if non-null, is incremented by the number of summary
  /// entries inspected (the random-access cost of the descent, which
  /// callers convert to modeled page reads).
  size_t SeekFirstGE(TokenId t, float target, uint64_t* probes = nullptr) const;
  /// First position with len > target (the exclusive end of a length bound).
  size_t SeekFirstGT(TokenId t, float target, uint64_t* probes = nullptr) const;

  /// The Theorem-1 window [lo_len, hi_len] of token `t` as a contiguous
  /// posting range, located entirely through the block summaries.
  PostingRange WindowSpan(TokenId t, float lo_len, float hi_len,
                          uint64_t* probes = nullptr) const;

  /// TA/iTA's random-access membership probe: whether set `id`, of length
  /// `len`, is in `t`'s list. Lists are sorted by (len, id) (Order
  /// Preservation), so this finds the probe's landing block through the
  /// summaries (ProbeBlockFirst), then binary-searches that block's
  /// postings for an exact match. Empty lists hold nothing.
  bool Contains(TokenId t, float len, uint32_t id) const;
  /// First position of the block a probe for (len, id) lands on: the first
  /// block whose last posting is >= (len, id), or the last block when
  /// (len, id) lies past the list; 0 for an empty list. A binary search of
  /// the block summaries alone. Its page is the one a probe reads.
  size_t ProbeBlockFirst(TokenId t, float len, uint32_t id) const;

  /// Figure 5 size accounting (bytes): the lists (8 bytes per posting) with
  /// their offset table and skip lists. The block summaries do the skip
  /// lists' job, so SkipBytes() reports them.
  size_t ListBytesTotal() const;
  size_t SkipBytes() const { return BlockSummaryBytes(); }
  /// Always 0: the index holds no hash. Stays only until simbench's
  /// references to it are dropped (ROADMAP item 1's benchmark-kind change).
  size_t HashBytes() const { return 0; }
  size_t BlockSummaryBytes() const {
    return blocks_.size() * sizeof(PostingBlockSummary);
  }

  /// Per-set MinHash signatures (sketch prefilter tier). Row i holds the
  /// params.k 64-bit components of set sketch_begin() + i; empty when the
  /// index was built (or loaded from a version < 4 image) without sketches.
  bool has_sketches() const { return !sketch_sigs_.empty(); }
  const sketch::SketchParams& sketch_params() const { return options_.sketch; }
  /// First set id covered by the sketch rows (the shard begin for
  /// BuildShard, 0 otherwise).
  SetId sketch_begin() const { return sketch_begin_; }
  size_t sketch_num_sets() const {
    return has_sketches() ? sketch_sigs_.size() / options_.sketch.k : 0;
  }
  const uint64_t* sketch_signatures() const { return sketch_sigs_.data(); }
  size_t SketchBytes() const { return sketch_sigs_.size() * sizeof(uint64_t); }

  /// Serialized format versions Save accepts (Load reads all):
  ///  - 2: plain varint ids + fixed32 lengths;
  ///  - 3: lists as compressed posting blocks (storage/block_codec.h)
  ///    aligned to the summary blocks;
  ///  - 4: version 3 plus a trailing MinHash sketch section (params +
  ///    per-set signatures; see docs/FORMATS.md).
  /// Older images may also carry a by-id copy of the lists; Load skips it.
  static constexpr uint32_t kVersionLegacy = 2;
  static constexpr uint32_t kVersionBlocks = 3;
  static constexpr uint32_t kVersionLatest = 4;

  /// Serializes lists + options to `path` (the summaries are a derived
  /// structure and are rebuilt on Load). `version` selects the wire format — the
  /// latest by default; kVersionLegacy is kept writable for migration and
  /// for the format-size comparisons in the Figure 5 bench. `stats`, when
  /// non-null, receives the byte accounting of the written file.
  Status Save(const std::string& path, uint32_t version = kVersionLatest,
              IndexFileStats* stats = nullptr) const;
  static Result<InvertedIndex> Load(const std::string& path);

  /// Byte accounting of the serialized form without writing a file.
  IndexFileStats EncodedStats(uint32_t version = kVersionLatest) const;

  /// Structural invariant check (for tests and post-Load paranoia): lists
  /// sorted by (len, id) and block summaries matching them.
  /// Returns false and logs the first violation to stderr.
  bool Validate() const;

 private:
  InvertedIndex() = default;
  void EncodeTo(std::vector<uint8_t>* buf, uint32_t version,
                IndexFileStats* stats) const;
  static InvertedIndex BuildRangeWithLengths(
      const Collection& collection, const std::vector<float>& set_lengths,
      SetId range_begin, SetId range_end, InvertedIndexOptions options);
  void BuildDerived();

  InvertedIndexOptions options_;
  std::vector<uint64_t> offsets_;  // size num_tokens + 1
  std::vector<uint32_t> len_ids_;  // by (len asc, id asc)
  std::vector<float> len_lens_;
  std::vector<PostingBlockSummary> blocks_;  // concatenated per token
  std::vector<uint64_t> block_offsets_;      // size num_tokens + 1
  // Sketch section: num_sets rows of options_.sketch.k signature words for
  // sets [sketch_begin_, sketch_begin_ + num_sets). Empty when not built.
  std::vector<uint64_t> sketch_sigs_;
  SetId sketch_begin_ = 0;
};

}  // namespace simsel

#endif  // SIMSEL_INDEX_INVERTED_INDEX_H_
