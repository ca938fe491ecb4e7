#include "simd/kernels.h"

namespace simsel::simd {
namespace {

// The reference semantics every vector variant must reproduce bit-for-bit.
// Kept branch-light but deliberately simple: this is the implementation the
// parity suite trusts and the SIMSEL_FORCE_SCALAR escape hatch runs.

uint32_t DeltaPrefixSumU32(uint32_t first, const uint32_t* deltas, size_t n,
                           uint32_t* out) {
  uint32_t run = first;
  uint32_t max = 0;
  for (size_t i = 0; i < n; ++i) {
    run += deltas[i];  // wrapping uint32 add
    out[i] = run;
    max = run > max ? run : max;
  }
  return max;
}

void BitsAddBaseF32(const uint32_t* deltas, size_t n, uint32_t base_bits,
                    float* out) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits = base_bits + deltas[i];
    __builtin_memcpy(&out[i], &bits, sizeof(float));
  }
}

size_t CountLeF32(const float* values, size_t n, float bound) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += values[i] <= bound ? 1 : 0;
  return count;
}

size_t CountLtF32(const float* values, size_t n, float bound) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += values[i] < bound ? 1 : 0;
  return count;
}

size_t IntersectPosU32(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, uint32_t* pos_out) {
  size_t i = 0, j = 0, k = 0;
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

constexpr SpanKernels kScalar = {
    "scalar",      DeltaPrefixSumU32, BitsAddBaseF32,
    CountLeF32,    CountLtF32,        IntersectPosU32,
};

}  // namespace

const SpanKernels& ScalarKernels() { return kScalar; }

}  // namespace simsel::simd
