#ifndef SIMSEL_SIMD_KERNELS_H_
#define SIMSEL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace simsel::simd {

/// The vectorizable inner loops of the span path, behind one function-
/// pointer table so the whole process picks an implementation exactly once
/// at startup (runtime CPUID dispatch; see Kernels()).
///
/// Every variant is *bit-exact* against the scalar reference — enforced by
/// tests/simd_kernels_test.cc — which is what lets the repo keep its
/// bit-identical-scores invariant (sim/idf.h): the kernels only move and
/// compare integers/float bit patterns; no floating-point sum is ever
/// reassociated. In particular the score path uses intersect_pos_u32 to
/// find matching query positions and then accumulates the weights in
/// ascending position order with plain scalar adds.
struct SpanKernels {
  /// Human-readable variant name ("scalar", "sse4.2", "avx2").
  const char* name;

  /// out[i] = first + deltas[0] + ... + deltas[i], with wrapping uint32
  /// adds (deltas are zigzag-decoded two's-complement values), and returns
  /// the largest value written (0 when n == 0). This is the block
  /// delta-decode: the codec parses varints into `deltas` and one
  /// prefix-sum pass materializes absolute ids; the returned maximum lets
  /// the store bound-check a block without a second pass (a corrupt block
  /// can wrap, so the last id need not be the largest).
  uint32_t (*delta_prefix_sum_u32)(uint32_t first, const uint32_t* deltas,
                                   size_t n, uint32_t* out);

  /// out[i] = bit_cast<float>(base_bits + deltas[i]) — the length half of
  /// the block decode (bit-packed deltas over IEEE-754 bit patterns).
  void (*bits_add_base_f32)(const uint32_t* deltas, size_t n,
                            uint32_t base_bits, float* out);

  /// Number of values[i] <= bound. On an ascending array this equals the
  /// std::upper_bound index — the λ-cutoff length filter that clips a span
  /// at a length bound inside a mixed block.
  size_t (*count_le_f32)(const float* values, size_t n, float bound);

  /// Number of values[i] < bound (== std::lower_bound index on an
  /// ascending array; the inclusive end of a window seek).
  size_t (*count_lt_f32)(const float* values, size_t n, float bound);

  /// Sorted-set intersection of two strictly-ascending uint32 arrays:
  /// writes the positions *in a* of the common elements, in ascending
  /// order, and returns the match count. pos_out must hold min(na, nb)
  /// entries. The score/overlap accumulate path runs this kernel and then
  /// sums weights at the returned positions in order, keeping the sum
  /// order — and therefore the score bits — identical to the scalar
  /// two-pointer walk.
  size_t (*intersect_pos_u32)(const uint32_t* a, size_t na, const uint32_t* b,
                              size_t nb, uint32_t* pos_out);
};

/// The portable reference implementation (always available).
const SpanKernels& ScalarKernels();

/// SSE4.2 / AVX2 variants: non-null only when the binary carries the code
/// path (x86-64 build) AND the running CPU reports the feature. Exposed so
/// the parity suite can test every variant the machine supports.
const SpanKernels* Sse42Kernels();
const SpanKernels* Avx2Kernels();

/// The process-wide table, resolved once on first use: AVX2 > SSE4.2 >
/// scalar, overridable with SIMSEL_FORCE_SCALAR=1 in the environment (any
/// non-empty value other than "0" forces the scalar reference — the knob
/// the check.sh scalar leg and A/B debugging use).
const SpanKernels& Kernels();

}  // namespace simsel::simd

#endif  // SIMSEL_SIMD_KERNELS_H_
