// AVX2 kernel variant (see kernels_sse42.cc for the gating story: the file
// is compiled with -mavx2 on x86-64 only and execution is CPUID-guarded).
// The intersect kernel deliberately reuses the 128-bit 4x4 tile: the inputs
// it sees (query token arrays, candidate sets) are short, where a wider
// tile's cross-lane permutes cost more than they save.

#include "simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/kernels_x86_inl.h"

namespace simsel::simd {
namespace {

/// In-register inclusive prefix sum of 8 uint32 lanes: log-step shifts
/// within each 128-bit lane, then the low lane's total is added to the
/// high lane.
inline __m256i PrefixSum8(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  __m256i low_total = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(3));
  low_total = _mm256_blend_epi32(_mm256_setzero_si256(), low_total, 0xF0);
  return _mm256_add_epi32(x, low_total);
}

uint32_t DeltaPrefixSumU32(uint32_t first, const uint32_t* deltas, size_t n,
                           uint32_t* out) {
  __m256i carry = _mm256_set1_epi32(static_cast<int>(first));
  __m256i vmax = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deltas + i));
    x = PrefixSum8(x);
    x = _mm256_add_epi32(x, carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
    vmax = _mm256_max_epu32(vmax, x);
    carry = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(7));
  }
  uint32_t max = x86::HorizontalMaxU32(_mm_max_epu32(
      _mm256_castsi256_si128(vmax), _mm256_extracti128_si256(vmax, 1)));
  uint32_t run = i == 0 ? first : out[i - 1];
  for (; i < n; ++i) {
    run += deltas[i];
    out[i] = run;
    max = run > max ? run : max;
  }
  return max;
}

void BitsAddBaseF32(const uint32_t* deltas, size_t n, uint32_t base_bits,
                    float* out) {
  const __m256i base = _mm256_set1_epi32(static_cast<int>(base_bits));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(deltas + i));
    x = _mm256_add_epi32(x, base);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
  }
  for (; i < n; ++i) {
    uint32_t bits = base_bits + deltas[i];
    __builtin_memcpy(&out[i], &bits, sizeof(float));
  }
}

size_t CountLeF32(const float* values, size_t n, float bound) {
  const __m256 b = _mm256_set1_ps(bound);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(values + i);
    count += static_cast<size_t>(_mm_popcnt_u32(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(x, b, _CMP_LE_OQ)))));
  }
  for (; i < n; ++i) count += values[i] <= bound ? 1 : 0;
  return count;
}

size_t CountLtF32(const float* values, size_t n, float bound) {
  const __m256 b = _mm256_set1_ps(bound);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(values + i);
    count += static_cast<size_t>(_mm_popcnt_u32(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(x, b, _CMP_LT_OQ)))));
  }
  for (; i < n; ++i) count += values[i] < bound ? 1 : 0;
  return count;
}

size_t IntersectPosU32(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, uint32_t* pos_out) {
  return x86::IntersectPosU32Tiled(a, na, b, nb, pos_out);
}

constexpr SpanKernels kAvx2 = {
    "avx2",        DeltaPrefixSumU32, BitsAddBaseF32,
    CountLeF32,    CountLtF32,        IntersectPosU32,
};

}  // namespace

const SpanKernels* Avx2Kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

}  // namespace simsel::simd

#else  // !defined(__AVX2__)

namespace simsel::simd {
const SpanKernels* Avx2Kernels() { return nullptr; }
}  // namespace simsel::simd

#endif
