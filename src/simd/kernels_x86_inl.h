#ifndef SIMSEL_SIMD_KERNELS_X86_INL_H_
#define SIMSEL_SIMD_KERNELS_X86_INL_H_

// 128-bit building blocks shared by the SSE4.2 and AVX2 translation units.
// Everything here is `static`: each TU gets its own copy compiled under its
// own -m flags (the AVX2 TU emits VEX encodings), which keeps the two
// variants ODR-clean while sharing one source of truth for the algorithms.

#include <cstddef>
#include <cstdint>

#include <smmintrin.h>

namespace simsel::simd::x86 {

/// In-register inclusive prefix sum of 4 uint32 lanes (log-step shifts).
static inline __m128i PrefixSum4(__m128i x) {
  x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
  x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
  return x;
}

/// Largest of the 4 uint32 lanes (unsigned compare, pmaxud).
static inline uint32_t HorizontalMaxU32(__m128i x) {
  x = _mm_max_epu32(x, _mm_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)));
  x = _mm_max_epu32(x, _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(x));
}

/// 4x4 tile sorted-set intersection (strictly-ascending inputs): compare
/// one block of a against every rotation of one block of b, emit matching
/// a-lane positions in ascending order, advance whichever block has the
/// smaller maximum. The scalar tail finishes the remainders.
static inline size_t IntersectPosU32Tiled(const uint32_t* a, size_t na,
                                          const uint32_t* b, size_t nb,
                                          uint32_t* pos_out) {
  size_t i = 0, j = 0, k = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) {
        pos_out[k++] = static_cast<uint32_t>(i + lane);
      }
    }
    const uint32_t a_max = a[i + 3];
    const uint32_t b_max = b[j + 3];
    if (a_max <= b_max) i += 4;
    if (b_max <= a_max) j += 4;
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      pos_out[k++] = static_cast<uint32_t>(i);
      ++i;
      ++j;
    }
  }
  return k;
}

}  // namespace simsel::simd::x86

#endif  // SIMSEL_SIMD_KERNELS_X86_INL_H_
