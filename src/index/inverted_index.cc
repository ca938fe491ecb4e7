#include "index/inverted_index.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

#include "simd/kernels.h"
#include "storage/block_codec.h"
#include "storage/codec.h"
#include "storage/paged_file.h"

namespace simsel {

std::unique_ptr<ThreadPool> MakeBuildPool(const InvertedIndexOptions& options,
                                          uint64_t total_postings) {
  size_t threads = options.build_threads;
  if (threads == 0) {
    if (total_postings < kParallelBuildThreshold) return nullptr;
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

InvertedIndex InvertedIndex::Build(const Collection& collection,
                                   const IdfMeasure& measure,
                                   InvertedIndexOptions options) {
  return BuildShard(collection, measure, 0,
                    static_cast<SetId>(collection.size()), options);
}

InvertedIndex InvertedIndex::BuildWithLengths(
    const Collection& collection, const std::vector<float>& set_lengths,
    InvertedIndexOptions options) {
  SIMSEL_CHECK_MSG(set_lengths.size() == collection.size(),
                   "one length per set required");
  return BuildRangeWithLengths(collection, set_lengths, 0,
                               static_cast<SetId>(collection.size()), options);
}

InvertedIndex InvertedIndex::BuildShard(const Collection& collection,
                                        const IdfMeasure& measure, SetId begin,
                                        SetId end, InvertedIndexOptions options) {
  SIMSEL_CHECK_MSG(begin <= end && end <= collection.size(),
                   "shard range out of bounds");
  // Lengths come from the global measure; only the range is ever read, but
  // the vector is indexed by global id to keep the fill loop uniform.
  std::vector<float> lengths(collection.size(), 0.0f);
  for (SetId s = begin; s < end; ++s) lengths[s] = measure.set_length(s);
  return BuildRangeWithLengths(collection, lengths, begin, end, options);
}

InvertedIndex InvertedIndex::BuildRangeWithLengths(
    const Collection& collection, const std::vector<float>& set_lengths,
    SetId range_begin, SetId range_end, InvertedIndexOptions options) {
  InvertedIndex index;
  index.options_ = options;
  const size_t num_tokens = collection.dictionary().size();

  // Pass 1: list sizes -> CSR offsets.
  index.offsets_.assign(num_tokens + 1, 0);
  for (SetId s = range_begin; s < range_end; ++s) {
    for (TokenId t : collection.set(s).tokens) ++index.offsets_[t + 1];
  }
  for (size_t t = 0; t < num_tokens; ++t) {
    index.offsets_[t + 1] += index.offsets_[t];
  }
  const uint64_t total = index.offsets_[num_tokens];

  // Pass 2: fill the lists in id order (iterating sets in id order).
  index.len_ids_.resize(total);
  index.len_lens_.resize(total);
  std::vector<uint64_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (SetId s = range_begin; s < range_end; ++s) {
    float len = set_lengths[s];
    for (TokenId t : collection.set(s).tokens) {
      uint64_t pos = cursor[t]++;
      index.len_ids_[pos] = s;
      index.len_lens_[pos] = len;
    }
  }

  // Pass 3: a per-token stable sort by len, in place. Ids ascend within
  // equal lengths because the sort is stable over an id-ascending input.
  // Tokens are independent, so the pass (and every derived structure below)
  // parallelizes per token.
  std::unique_ptr<ThreadPool> pool = MakeBuildPool(options, total);
  ParallelFor(pool.get(), num_tokens, [&index](size_t t) {
    thread_local std::vector<std::pair<float, uint32_t>> list;
    const uint64_t begin = index.offsets_[t];
    const size_t n = index.ListSize(static_cast<TokenId>(t));
    uint32_t* ids = index.len_ids_.data() + begin;
    float* lens = index.len_lens_.data() + begin;
    list.resize(n);
    for (size_t i = 0; i < n; ++i) list[i] = {lens[i], ids[i]};
    std::stable_sort(list.begin(), list.end(),
                     [](const std::pair<float, uint32_t>& a,
                        const std::pair<float, uint32_t>& b) {
                       return a.first < b.first;
                     });
    for (size_t i = 0; i < n; ++i) std::tie(lens[i], ids[i]) = list[i];
  });

  // Pass 4: per-set MinHash signatures for the sketch prefilter tier. Sets
  // are independent, so the pass reuses the build pool; the fixed seed makes
  // the section identical across builds and thread counts.
  if (options.build_sketches && options.sketch.valid() &&
      range_end > range_begin) {
    const uint32_t k = options.sketch.k;
    const std::vector<uint64_t> seeds = sketch::ComponentSeeds(options.sketch);
    index.sketch_begin_ = range_begin;
    index.sketch_sigs_.resize(
        static_cast<size_t>(range_end - range_begin) * k);
    ParallelFor(pool.get(), range_end - range_begin,
                [&index, &collection, &seeds, range_begin, k](size_t i) {
                  const SetRecord& set =
                      collection.set(range_begin + static_cast<SetId>(i));
                  sketch::ComputeSignature(
                      set.tokens.data(), set.tokens.size(), seeds,
                      index.sketch_sigs_.data() + i * static_cast<size_t>(k));
                });
  }

  index.BuildDerived();
  return index;
}

void InvertedIndex::BuildDerived() {
  const size_t num_tokens = offsets_.size() - 1;
  SIMSEL_CHECK_MSG(options_.block_postings >= 1 &&
                       options_.block_postings <= kMaxBlockPostings,
                   "block_postings must be in [1, kMaxBlockPostings]");
  // Block summaries in CSR layout: ceil(size / block) blocks per token.
  const size_t bp = options_.block_postings;
  block_offsets_.assign(num_tokens + 1, 0);
  for (size_t t = 0; t < num_tokens; ++t) {
    block_offsets_[t + 1] = block_offsets_[t] + (ListSize(t) + bp - 1) / bp;
  }
  blocks_.resize(block_offsets_[num_tokens]);

  std::unique_ptr<ThreadPool> pool =
      MakeBuildPool(options_, total_postings());
  ParallelFor(pool.get(), num_tokens, [this, bp](size_t t) {
    const size_t n = ListSize(static_cast<TokenId>(t));
    const uint32_t* ids = LenIds(static_cast<TokenId>(t));
    const float* lens = LenLens(static_cast<TokenId>(t));
    PostingBlockSummary* blocks = blocks_.data() + block_offsets_[t];
    for (size_t first = 0, b = 0; first < n; first += bp, ++b) {
      const size_t last = std::min(n, first + bp) - 1;
      blocks[b] = PostingBlockSummary{lens[first], lens[last], ids[first],
                                      ids[last]};
    }
  });
}

size_t InvertedIndex::SeekFirstGE(TokenId t, float target,
                                  uint64_t* probes) const {
  const size_t n = ListSize(t);
  if (n == 0) return 0;
  const PostingBlockSummary* blocks = Blocks(t);
  // First block whose max_len reaches the target; every earlier block lies
  // wholly below it. max_len is non-decreasing across blocks.
  size_t lo = 0, hi = NumBlocks(t);
  uint64_t visited = 0;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++visited;
    if (blocks[mid].max_len < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) *probes += std::max<uint64_t>(visited, 1);
  if (lo == NumBlocks(t)) return n;
  const float* lens = LenLens(t);
  const size_t first = lo * options_.block_postings;
  const size_t last = std::min(n, first + options_.block_postings);
  // count_lt over the sorted landing block == lower_bound index.
  return first + simd::Kernels().count_lt_f32(lens + first, last - first,
                                              target);
}

size_t InvertedIndex::SeekFirstGT(TokenId t, float target,
                                  uint64_t* probes) const {
  const size_t n = ListSize(t);
  if (n == 0) return 0;
  const PostingBlockSummary* blocks = Blocks(t);
  size_t lo = 0, hi = NumBlocks(t);
  uint64_t visited = 0;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++visited;
    if (blocks[mid].max_len <= target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) *probes += std::max<uint64_t>(visited, 1);
  if (lo == NumBlocks(t)) return n;
  const float* lens = LenLens(t);
  const size_t first = lo * options_.block_postings;
  const size_t last = std::min(n, first + options_.block_postings);
  // count_le over the sorted landing block == upper_bound index.
  return first + simd::Kernels().count_le_f32(lens + first, last - first,
                                              target);
}

PostingRange InvertedIndex::WindowSpan(TokenId t, float lo_len, float hi_len,
                                       uint64_t* probes) const {
  PostingRange range;
  range.begin = SeekFirstGE(t, lo_len, probes);
  range.end = std::max(range.begin, SeekFirstGT(t, hi_len, probes));
  return range;
}

namespace {
// Whether posting (l, i) precedes (len, id) in a list's (len, id) order.
bool PostingBefore(float l, uint32_t i, float len, uint32_t id) {
  return l < len || (l == len && i < id);
}
}  // namespace

size_t InvertedIndex::ProbeBlockFirst(TokenId t, float len,
                                      uint32_t id) const {
  if (ListSize(t) == 0) return 0;
  const PostingBlockSummary* blocks = Blocks(t);
  size_t lo = 0, hi = NumBlocks(t) - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (PostingBefore(blocks[mid].max_len, blocks[mid].last_id, len, id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo * options_.block_postings;
}

bool InvertedIndex::Contains(TokenId t, float len, uint32_t id) const {
  const size_t n = ListSize(t);
  if (n == 0) return false;
  // The first posting of the landing block that is >= (len, id).
  const float* lens = LenLens(t);
  const uint32_t* ids = LenIds(t);
  size_t a = ProbeBlockFirst(t, len, id);
  size_t b = std::min(n, a + options_.block_postings);
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (PostingBefore(lens[mid], ids[mid], len, id)) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a < n && ids[a] == id && lens[a] == len;
}

size_t InvertedIndex::ListBytesTotal() const {
  return len_ids_.size() * 8 + offsets_.size() * sizeof(uint64_t);
}

bool InvertedIndex::Validate() const {
  const size_t num_tokens = this->num_tokens();
  for (TokenId t = 0; t < num_tokens; ++t) {
    const size_t n = ListSize(t);
    const uint32_t* lids = LenIds(t);
    const float* llens = LenLens(t);
    for (size_t i = 1; i < n; ++i) {
      if (llens[i - 1] > llens[i] ||
          (llens[i - 1] == llens[i] && lids[i - 1] >= lids[i])) {
        std::fprintf(stderr, "InvertedIndex: by-length order violated "
                             "(token %u pos %zu)\n", t, i);
        return false;
      }
    }
    // Block summaries: CSR shape, per-block extrema matching the data.
    const size_t bp = options_.block_postings;
    if (NumBlocks(t) != (n + bp - 1) / bp) {
      std::fprintf(stderr, "InvertedIndex: block count mismatch (token %u)\n",
                   t);
      return false;
    }
    const PostingBlockSummary* blocks = Blocks(t);
    for (size_t first = 0, b = 0; first < n; first += bp, ++b) {
      const size_t last = std::min(n, first + bp) - 1;
      if (blocks[b].min_len != llens[first] ||
          blocks[b].max_len != llens[last] ||
          blocks[b].first_id != lids[first] ||
          blocks[b].last_id != lids[last]) {
        std::fprintf(stderr, "InvertedIndex: block summary wrong "
                             "(token %u block %zu)\n", t, b);
        return false;
      }
    }
    // The summary seeks must agree with a direct scan for a few probes.
    for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 8)) {
      if (SeekFirstGE(t, llens[i]) > i ||
          llens[SeekFirstGE(t, llens[i])] < llens[i]) {
        std::fprintf(stderr, "InvertedIndex: block seek wrong (token %u)\n",
                     t);
        return false;
      }
    }
  }
  return true;
}

namespace {
constexpr uint32_t kMagic = 0x53494E56;  // "SINV"
// Header slots of the retired per-list skip index (its fanout and build
// flag). Written as the old defaults so images stay byte-identical, and
// ignored on Load.
constexpr uint64_t kRetiredSkipFanout = 64;
constexpr uint8_t kRetiredBuildSkip = 1;
// Header slot of the retired by-id list order's build flag: written as 0
// and ignored on Load. Images that still carry the by-id section flag it
// after the lists, and Load skips it.
constexpr uint8_t kRetiredBuildIdLists = 0;
// Header slots of the retired per-list extendible hashes (their bucket page
// size and build flag). Written as the old defaults so images stay
// byte-identical, and ignored on Load.
constexpr uint64_t kRetiredHashPageBytes = 1024;
constexpr uint8_t kRetiredBuildHash = 1;
}  // namespace

void InvertedIndex::EncodeTo(std::vector<uint8_t>* bufp, uint32_t version,
                             IndexFileStats* stats) const {
  SIMSEL_CHECK_MSG(
      version >= kVersionLegacy && version <= kVersionLatest,
      "unsupported index serialization version");
  std::vector<uint8_t>& buf = *bufp;
  const size_t num_tokens = this->num_tokens();
  PutFixed32(&buf, kMagic);
  PutFixed32(&buf, version);
  PutFixed64(&buf, options_.page_bytes);
  PutFixed64(&buf, kRetiredSkipFanout);
  PutFixed64(&buf, kRetiredHashPageBytes);
  PutFixed64(&buf, options_.block_postings);
  buf.push_back(kRetiredBuildIdLists);
  buf.push_back(kRetiredBuildSkip);
  buf.push_back(kRetiredBuildHash);
  PutFixed64(&buf, offsets_.size());
  for (uint64_t o : offsets_) PutVarint64(&buf, o);

  // The lists.
  const size_t len_payload_begin = buf.size();
  if (version == kVersionLegacy) {
    // v2: plain varint ids, then fixed32 length bit patterns.
    for (uint32_t id : len_ids_) PutVarint32(&buf, id);
    for (float len : len_lens_) PutFloat(&buf, len);
  } else {
    // v3: compressed posting blocks aligned to the summary blocks, so the
    // on-disk block structure is exactly the structure cursors consume.
    const size_t bp = options_.block_postings;
    for (size_t t = 0; t < num_tokens; ++t) {
      const size_t n = ListSize(static_cast<TokenId>(t));
      const uint32_t* ids = LenIds(static_cast<TokenId>(t));
      const float* lens = LenLens(static_cast<TokenId>(t));
      for (size_t first = 0; first < n; first += bp) {
        EncodePostingBlock(ids + first, lens + first, std::min(bp, n - first),
                           &buf);
      }
    }
  }
  const size_t len_payload = buf.size() - len_payload_begin;

  // No by-id section (the retired second list order).
  buf.push_back(0);

  // v4: trailing MinHash sketch section (params + raw signature words).
  size_t sketch_payload = 0;
  if (version >= 4) {
    buf.push_back(has_sketches() ? 1 : 0);
    if (has_sketches()) {
      const size_t sketch_begin_pos = buf.size();
      const sketch::SketchParams& p = options_.sketch;
      PutFixed32(&buf, p.k);
      PutFixed32(&buf, p.bands);
      PutFixed32(&buf, p.rows);
      PutFixed64(&buf, p.seed);
      PutDouble(&buf, p.miss_bound);
      PutVarint64(&buf, sketch_begin_);
      PutVarint64(&buf, sketch_num_sets());
      for (uint64_t w : sketch_sigs_) PutFixed64(&buf, w);
      sketch_payload = buf.size() - sketch_begin_pos;
    }
  }

  if (stats != nullptr) {
    // PagedFile wraps the payload in a 16-byte header + 8-byte checksum.
    stats->file_bytes = buf.size() + 24;
    stats->len_payload_bytes = len_payload;
    stats->sketch_payload_bytes = sketch_payload;
  }
}

Status InvertedIndex::Save(const std::string& path, uint32_t version,
                           IndexFileStats* stats) const {
  PagedFile file(options_.page_bytes);
  std::vector<uint8_t> buf;
  EncodeTo(&buf, version, stats);
  file.Append(buf.data(), buf.size());
  return file.SaveToFile(path);
}

IndexFileStats InvertedIndex::EncodedStats(uint32_t version) const {
  std::vector<uint8_t> buf;
  IndexFileStats stats;
  EncodeTo(&buf, version, &stats);
  return stats;
}

Result<InvertedIndex> InvertedIndex::Load(const std::string& path) {
  Result<PagedFile> file = PagedFile::LoadFromFile(path);
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& buf = file->contents();
  Decoder dec{buf.data(), buf.size(), 0};
  uint32_t magic, version;
  if (!GetFixed32(&dec, &magic) || magic != kMagic) {
    return Status::Corruption("bad magic in index file: " + path);
  }
  if (!GetFixed32(&dec, &version) || version < kVersionLegacy ||
      version > kVersionLatest) {
    return Status::Corruption("unsupported index version in: " + path);
  }
  InvertedIndex index;
  uint64_t page_bytes, retired_skip_fanout, retired_hash_page_bytes,
      block_postings;
  if (!GetFixed64(&dec, &page_bytes) ||
      !GetFixed64(&dec, &retired_skip_fanout) ||
      !GetFixed64(&dec, &retired_hash_page_bytes) ||
      !GetFixed64(&dec, &block_postings) || page_bytes < kMinPageBytes ||
      page_bytes > kMaxPageBytes || block_postings == 0 ||
      block_postings > kMaxBlockPostings ||
      dec.remaining() < 3) {
    return Status::Corruption("truncated index options in: " + path);
  }
  index.options_.page_bytes = page_bytes;
  index.options_.block_postings = block_postings;
  dec.pos += 3;  // the retired by-id, skip and hash build flags
  // Every count below comes off the file, so each is bounded by the bytes
  // left before it sizes anything: an offset is at least one varint byte
  // and a posting at least one byte in either format. Offsets start at 0
  // and never decrease, so every list lies inside [0, total).
  uint64_t num_offsets;
  if (!GetFixed64(&dec, &num_offsets) || num_offsets == 0 ||
      num_offsets > dec.remaining()) {
    return Status::Corruption("bad offset table in: " + path);
  }
  index.offsets_.resize(num_offsets);
  for (uint64_t i = 0; i < num_offsets; ++i) {
    uint64_t& offset = index.offsets_[i];
    if (!GetVarint64(&dec, &offset) ||
        (i == 0 ? offset != 0 : offset < index.offsets_[i - 1])) {
      return Status::Corruption("bad offsets in: " + path);
    }
  }
  const size_t num_tokens = num_offsets - 1;
  uint64_t total = index.offsets_.back();
  if (total > dec.remaining()) {
    return Status::Corruption("posting count exceeds the file in: " + path);
  }
  index.len_ids_.resize(total);
  index.len_lens_.resize(total);
  if (version == kVersionLegacy) {
    for (uint64_t i = 0; i < total; ++i) {
      if (!GetVarint32(&dec, &index.len_ids_[i])) {
        return Status::Corruption("truncated postings in: " + path);
      }
    }
    for (uint64_t i = 0; i < total; ++i) {
      if (!GetFloat(&dec, &index.len_lens_[i])) {
        return Status::Corruption("truncated lengths in: " + path);
      }
    }
  } else {
    const size_t bp = index.options_.block_postings;
    BlockDecodeScratch scratch;
    for (size_t t = 0; t < num_tokens; ++t) {
      const uint64_t begin = index.offsets_[t];
      const uint64_t n = index.offsets_[t + 1] - begin;
      for (uint64_t first = 0; first < n; first += bp) {
        const size_t expect = static_cast<size_t>(std::min<uint64_t>(bp, n - first));
        size_t got = 0, consumed = 0;
        if (!DecodePostingBlock(dec.data + dec.pos, dec.size - dec.pos,
                                expect, index.len_ids_.data() + begin + first,
                                index.len_lens_.data() + begin + first, &got,
                                &consumed, &scratch) ||
            got != expect) {
          return Status::Corruption("bad posting block in: " + path);
        }
        dec.pos += consumed;
      }
    }
  }
  if (dec.exhausted()) return Status::Corruption("missing id lists flag");
  if (dec.data[dec.pos++] != 0) {
    // A by-id copy of the lists (the retired second order): ids as varints
    // (gaps from v3 on), then fixed32 lengths in v2. Every skipped varint
    // consumes a byte, so the loop is bounded by the bytes left.
    for (uint64_t i = 0; i < total; ++i) {
      uint32_t unused;
      if (!GetVarint32(&dec, &unused)) {
        return Status::Corruption("truncated id postings in: " + path);
      }
    }
    if (version == kVersionLegacy) {
      if (total * 4 > dec.remaining()) {
        return Status::Corruption("truncated id lengths in: " + path);
      }
      dec.pos += total * 4;
    }
  }
  // v4: trailing MinHash sketch section.
  index.options_.build_sketches = false;
  if (version >= 4) {
    if (dec.exhausted()) return Status::Corruption("missing sketch flag");
    const bool has_sketch = dec.data[dec.pos++] != 0;
    if (has_sketch) {
      sketch::SketchParams& p = index.options_.sketch;
      uint64_t sketch_begin = 0, num_sets = 0;
      if (!GetFixed32(&dec, &p.k) || !GetFixed32(&dec, &p.bands) ||
          !GetFixed32(&dec, &p.rows) || !GetFixed64(&dec, &p.seed) ||
          !GetDouble(&dec, &p.miss_bound) ||
          !GetVarint64(&dec, &sketch_begin) ||
          !GetVarint64(&dec, &num_sets) || !p.valid()) {
        return Status::Corruption("bad sketch section header in: " + path);
      }
      const uint64_t words = num_sets * p.k;
      if (num_sets > (uint64_t{1} << 32) || words > dec.remaining() / 8) {
        return Status::Corruption("truncated sketch section in: " + path);
      }
      index.sketch_begin_ = static_cast<SetId>(sketch_begin);
      index.sketch_sigs_.resize(words);
      for (uint64_t i = 0; i < words; ++i) {
        GetFixed64(&dec, &index.sketch_sigs_[i]);
      }
      index.options_.build_sketches = true;
    }
  }
  if (!dec.exhausted()) {
    return Status::Corruption("trailing bytes in: " + path);
  }
  index.BuildDerived();
  return index;
}

}  // namespace simsel
