#include "storage/block_codec.h"

#include <cstring>

#include "simd/kernels.h"

namespace simsel {

namespace {

inline uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// Bits needed to represent `v` (0 for v == 0).
inline uint32_t BitWidth(uint32_t v) {
  return v == 0 ? 0u : 32u - static_cast<uint32_t>(__builtin_clz(v));
}

}  // namespace

void EncodePostingBlock(const uint32_t* ids, const float* lens, size_t count,
                        std::vector<uint8_t>* dst) {
  AppendVarint32(dst, static_cast<uint32_t>(count));
  if (count == 0) return;

  // Ids: first raw, the rest as zigzag deltas. By-length blocks are sorted
  // by (len, id), so ids ascend within equal-length runs and only run
  // boundaries pay for a (still small) negative delta.
  AppendVarint32(dst, ids[0]);
  for (size_t i = 1; i < count; ++i) {
    int32_t delta = static_cast<int32_t>(ids[i] - ids[i - 1]);
    AppendVarint32(dst, ZigzagEncode32(delta));
  }

  // Lengths: fixed-width bit-packed deltas over the IEEE-754 bit patterns.
  // Within a block the lengths are ascending and near each other, so their
  // bit patterns (monotone for non-negative floats) cluster tightly; the
  // base/width form stays lossless for arbitrary floats regardless.
  uint32_t base_bits = FloatBits(lens[0]);
  for (size_t i = 1; i < count; ++i) {
    base_bits = std::min(base_bits, FloatBits(lens[i]));
  }
  uint32_t max_delta = 0;
  for (size_t i = 0; i < count; ++i) {
    max_delta = std::max(max_delta, FloatBits(lens[i]) - base_bits);
  }
  const uint32_t width = BitWidth(max_delta);
  for (int b = 0; b < 4; ++b) {
    dst->push_back(static_cast<uint8_t>(base_bits >> (8 * b)));
  }
  dst->push_back(static_cast<uint8_t>(width));
  // LSB-first bit stream; the accumulator never exceeds 7 + 32 bits.
  uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (size_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(FloatBits(lens[i]) - base_bits) << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      dst->push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) dst->push_back(static_cast<uint8_t>(acc));
}

bool DecodePostingBlock(const uint8_t* data, size_t size, size_t max_count,
                        uint32_t* ids, float* lens, size_t* count,
                        size_t* consumed, BlockDecodeScratch* scratch,
                        uint32_t* max_id) {
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  uint32_t n32;
  if ((p = ReadVarint32Bounded(p, end, &n32)) == nullptr) return false;
  const size_t n = n32;
  if (n > max_count) return false;
  *count = n;
  if (n == 0) {
    *consumed = static_cast<size_t>(p - data);
    if (max_id != nullptr) *max_id = 0;
    return true;
  }

  // Ids: parse the varint stream into zigzag-decoded deltas (deltas[0] = 0),
  // then one SIMD prefix-sum pass materializes the absolute ids.
  uint32_t first_id;
  if ((p = ReadVarint32Bounded(p, end, &first_id)) == nullptr) return false;
  scratch->deltas.resize(n);
  scratch->deltas[0] = 0;
  for (size_t i = 1; i < n; ++i) {
    uint32_t zz;
    if ((p = ReadVarint32Bounded(p, end, &zz)) == nullptr) return false;
    scratch->deltas[i] = static_cast<uint32_t>(ZigzagDecode32(zz));
  }
  const simd::SpanKernels& kernels = simd::Kernels();
  const uint32_t largest =
      kernels.delta_prefix_sum_u32(first_id, scratch->deltas.data(), n, ids);
  if (max_id != nullptr) *max_id = largest;

  // Lengths: unpack the fixed-width deltas, then SIMD add-base + bitcast.
  if (end - p < 5) return false;
  uint32_t base_bits = 0;
  for (int b = 0; b < 4; ++b) {
    base_bits |= static_cast<uint32_t>(*p++) << (8 * b);
  }
  const uint32_t width = *p++;
  if (width > 32) return false;
  const size_t packed_bytes = (n * width + 7) / 8;
  if (static_cast<size_t>(end - p) < packed_bytes) return false;
  scratch->deltas.resize(n);
  if (width == 0) {
    std::memset(scratch->deltas.data(), 0, n * sizeof(uint32_t));
  } else {
    const uint64_t mask =
        width == 32 ? ~uint64_t{0} >> 32 : (uint64_t{1} << width) - 1;
    uint64_t acc = 0;
    unsigned acc_bits = 0;
    const uint8_t* q = p;
    for (size_t i = 0; i < n; ++i) {
      while (acc_bits < width) {
        acc |= static_cast<uint64_t>(*q++) << acc_bits;
        acc_bits += 8;
      }
      scratch->deltas[i] = static_cast<uint32_t>(acc & mask);
      acc >>= width;
      acc_bits -= width;
    }
  }
  p += packed_bytes;
  kernels.bits_add_base_f32(scratch->deltas.data(), n, base_bits, lens);
  *consumed = static_cast<size_t>(p - data);
  return true;
}

}  // namespace simsel
