// SSE4.2 kernel variant. This file is compiled with -msse4.2 on x86-64
// targets only (see src/CMakeLists.txt); execution is additionally gated at
// runtime by __builtin_cpu_supports, so a binary carrying this code is safe
// on CPUs without the feature. On other targets the getter returns null.

#include "simd/kernels.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include "simd/kernels_x86_inl.h"

namespace simsel::simd {
namespace {

uint32_t DeltaPrefixSumU32(uint32_t first, const uint32_t* deltas, size_t n,
                           uint32_t* out) {
  __m128i carry = _mm_set1_epi32(static_cast<int>(first));
  __m128i vmax = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(deltas + i));
    x = x86::PrefixSum4(x);
    x = _mm_add_epi32(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), x);
    vmax = _mm_max_epu32(vmax, x);
    carry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  uint32_t max = x86::HorizontalMaxU32(vmax);
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
  const __m128i base = _mm_set1_epi32(static_cast<int>(base_bits));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(deltas + i));
    x = _mm_add_epi32(x, base);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), x);
  }
  for (; i < n; ++i) {
    uint32_t bits = base_bits + deltas[i];
    __builtin_memcpy(&out[i], &bits, sizeof(float));
  }
}

size_t CountLeF32(const float* values, size_t n, float bound) {
  const __m128 b = _mm_set1_ps(bound);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(values + i);
    count += static_cast<size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(_mm_movemask_ps(_mm_cmple_ps(x, b)))));
  }
  for (; i < n; ++i) count += values[i] <= bound ? 1 : 0;
  return count;
}

size_t CountLtF32(const float* values, size_t n, float bound) {
  const __m128 b = _mm_set1_ps(bound);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(values + i);
    count += static_cast<size_t>(
        _mm_popcnt_u32(static_cast<unsigned>(_mm_movemask_ps(_mm_cmplt_ps(x, b)))));
  }
  for (; i < n; ++i) count += values[i] < bound ? 1 : 0;
  return count;
}

size_t IntersectPosU32(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, uint32_t* pos_out) {
  return x86::IntersectPosU32Tiled(a, na, b, nb, pos_out);
}

constexpr SpanKernels kSse42 = {
    "sse4.2",      DeltaPrefixSumU32, BitsAddBaseF32,
    CountLeF32,    CountLtF32,        IntersectPosU32,
};

}  // namespace

const SpanKernels* Sse42Kernels() {
  return __builtin_cpu_supports("sse4.2") ? &kSse42 : nullptr;
}

}  // namespace simsel::simd

#else  // !defined(__SSE4_2__)

namespace simsel::simd {
const SpanKernels* Sse42Kernels() { return nullptr; }
}  // namespace simsel::simd

#endif
