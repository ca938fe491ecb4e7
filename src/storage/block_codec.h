#ifndef SIMSEL_STORAGE_BLOCK_CODEC_H_
#define SIMSEL_STORAGE_BLOCK_CODEC_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace simsel {

/// \file
/// The one varint implementation in the tree, plus the compressed
/// posting-block codec built on it.
///
/// The low-level primitives here back storage/codec.cc (the
/// general-purpose Put*/Get* layer), which used to carry a private copy of
/// the same LEB128 loops. The block codec encodes one summary block of by-length
/// postings — ids zigzag-delta-coded as varints, lengths bit-packed as
/// fixed-width deltas over their IEEE-754 bit patterns — and is the wire
/// format of InvertedIndex kVersion 3 and of the PostingStore page image.
/// Decoding is lossless to the bit for any inputs (ids need not be sorted;
/// lengths may be any float bit pattern including -0.0 and NaN).

// --- LEB128 primitives (the single shared implementation). ---

/// Appends `v` as a little-endian base-128 varint (1-5 bytes).
inline void AppendVarint32(std::vector<uint8_t>* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

/// Appends `v` as a little-endian base-128 varint (1-10 bytes).
inline void AppendVarint64(std::vector<uint8_t>* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

/// Unchecked decode for trusted in-memory blobs (the caller guarantees a
/// well-formed stream, e.g. one it encoded itself). Returns the advanced
/// read pointer.
inline const uint8_t* ReadVarint32Fast(const uint8_t* p, uint32_t* v) {
  uint32_t out = *p & 0x7F;
  if ((*p++ & 0x80) != 0) {
    int shift = 7;
    for (;;) {
      out |= static_cast<uint32_t>(*p & 0x7F) << shift;
      if ((*p++ & 0x80) == 0) break;
      shift += 7;
    }
  }
  *v = out;
  return p;
}

/// Bounded decode: nullptr on truncation, overlong encoding, or a value
/// exceeding 64 bits; otherwise the advanced read pointer.
inline const uint8_t* ReadVarint64Bounded(const uint8_t* p, const uint8_t* end,
                                          uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  while (shift <= 63) {
    if (p >= end) return nullptr;
    uint8_t byte = *p++;
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return p;
    }
    shift += 7;
  }
  return nullptr;  // over-long varint
}

/// Bounded 32-bit decode: additionally rejects values above UINT32_MAX.
inline const uint8_t* ReadVarint32Bounded(const uint8_t* p, const uint8_t* end,
                                          uint32_t* v) {
  uint64_t wide;
  p = ReadVarint64Bounded(p, end, &wide);
  if (p == nullptr || wide > 0xFFFFFFFFULL) return nullptr;
  *v = static_cast<uint32_t>(wide);
  return p;
}

/// Zigzag mapping so small-magnitude signed deltas get short varints.
inline uint32_t ZigzagEncode32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
}
inline int32_t ZigzagDecode32(uint32_t v) {
  return static_cast<int32_t>((v >> 1) ^ (~(v & 1) + 1));
}

// --- Compressed posting blocks. ---

/// The largest block a loader accepts: decoders size per-block buffers by
/// the block length an image declares.
constexpr size_t kMaxBlockPostings = size_t{1} << 16;

/// Reusable decode staging owned by each consumer (one per ListCursor in
/// disk mode; Load paths keep a local one). `deltas` stages the parsed id /
/// length deltas handed to the SIMD prefix-sum kernels; `raw`/`ids`/`lens`
/// plus the cache key let PostingStore::ReadBlock skip re-decoding the
/// block it decoded last (spans clipped by a length bound revisit the same
/// block several times).
struct BlockDecodeScratch {
  std::vector<uint32_t> deltas;
  std::vector<uint8_t> raw;
  std::vector<uint32_t> ids;
  std::vector<float> lens;
  // Cache key of the decoded postings in ids/lens (owner == nullptr: none).
  const void* owner = nullptr;
  uint32_t token = 0;
  uint64_t first = 0;

  void InvalidateCache() { owner = nullptr; }
};

/// Appends one compressed block to `dst`:
///
///   varint32  count
///   varint32  ids[0]                                 (count > 0)
///   varint32  zigzag(ids[i] - ids[i-1])              (i in [1, count))
///   fixed32   base_bits = min over bit_cast<u32>(lens[i])
///   uint8     width in [0, 32]
///   bytes     ceil(count*width / 8) LSB-first fixed-width deltas
///             bit_cast<u32>(lens[i]) - base_bits
void EncodePostingBlock(const uint32_t* ids, const float* lens, size_t count,
                        std::vector<uint8_t>* dst);

/// Decodes one block from [data, data+size). On success writes `*count`
/// (<= max_count) postings to ids/lens, sets `*consumed` to the bytes read,
/// sets `*max_id` (when non-null) to the largest id decoded (0 for an empty
/// block), and returns true. Returns false on truncated or malformed input
/// or a count above max_count (nothing is written past max_count).
/// `scratch` provides the delta staging; its cache fields are not touched.
bool DecodePostingBlock(const uint8_t* data, size_t size, size_t max_count,
                        uint32_t* ids, float* lens, size_t* count,
                        size_t* consumed, BlockDecodeScratch* scratch,
                        uint32_t* max_id = nullptr);

}  // namespace simsel

#endif  // SIMSEL_STORAGE_BLOCK_CODEC_H_
