// Scalar-vs-SIMD parity for the span kernels (simd/kernels.h). Every
// variant the running machine supports must be *bit-exact* against the
// scalar reference on adversarial inputs: empty blocks, single elements,
// all-equal lengths, maximum (wrapping) id deltas, and unaligned tails of
// every length around the 4/8-lane vector widths. The suite also pins the
// dispatch contract: SIMSEL_FORCE_SCALAR=1 must resolve to the scalar
// table (the check.sh scalar leg reruns everything under that env).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "simd/kernels.h"

namespace simsel::simd {
namespace {

/// Every kernel table the machine can run, scalar first.
std::vector<const SpanKernels*> AvailableVariants() {
  std::vector<const SpanKernels*> v = {&ScalarKernels()};
  if (Sse42Kernels() != nullptr) v.push_back(Sse42Kernels());
  if (Avx2Kernels() != nullptr) v.push_back(Avx2Kernels());
  return v;
}

uint32_t FloatToBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Tail lengths around the vector widths: 0..9 covers both the 4-lane and
// 8-lane remainders, the larger ones exercise full vector bodies + tails.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 67};

TEST(SimdKernelsTest, DeltaPrefixSumParity) {
  std::mt19937 rng(20260808);
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    for (size_t n : kSizes) {
      // Adversarial delta patterns: zero, max-uint32 (wrap every step),
      // alternating sign (zigzag-decoded negatives), and random.
      std::vector<std::vector<uint32_t>> patterns;
      patterns.emplace_back(n, 0u);
      patterns.emplace_back(n, std::numeric_limits<uint32_t>::max());
      std::vector<uint32_t> alt(n);
      for (size_t i = 0; i < n; ++i) {
        alt[i] = i % 2 == 0 ? 5u : static_cast<uint32_t>(-3);
      }
      patterns.push_back(std::move(alt));
      std::vector<uint32_t> rnd(n);
      for (uint32_t& d : rnd) d = rng();
      patterns.push_back(std::move(rnd));
      for (const std::vector<uint32_t>& deltas : patterns) {
        for (uint32_t first : {0u, 1u, 0xFFFFFFF0u}) {
          std::vector<uint32_t> expect(n), got(n);
          ScalarKernels().delta_prefix_sum_u32(first, deltas.data(), n,
                                               expect.data());
          k->delta_prefix_sum_u32(first, deltas.data(), n, got.data());
          ASSERT_EQ(expect, got) << "n=" << n << " first=" << first;
        }
      }
    }
  }
}

// The returned maximum is what the store bound-checks a decoded block
// with, so every variant must report the scalar maximum, including across
// vector-width boundaries and when the prefix sum wraps past 2^32 - 1.
TEST(SimdKernelsTest, DeltaPrefixSumMaxParity) {
  std::mt19937 rng(20261019);
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{128}}) {
      std::vector<uint32_t> ascending(n), wrapping(n), random(n);
      for (size_t i = 0; i < n; ++i) {
        ascending[i] = i == 0 ? 0u : 1u + (rng() & 3u);
        wrapping[i] = i % 3 == 2 ? 7u : 1u;  // crosses 2^32 - 1 mid-block
        random[i] = rng();
      }
      for (const std::vector<uint32_t>* deltas :
           {&ascending, &wrapping, &random}) {
        for (uint32_t first : {0u, 0xFFFFFF00u, 0xFFFFFFF8u, 0xFFFFFFFFu}) {
          std::vector<uint32_t> out(n);
          const uint32_t expect = ScalarKernels().delta_prefix_sum_u32(
              first, deltas->data(), n, out.data());
          const uint32_t got =
              k->delta_prefix_sum_u32(first, deltas->data(), n, out.data());
          const uint32_t written =
              n == 0 ? 0u : *std::max_element(out.begin(), out.end());
          EXPECT_EQ(expect, written) << "n=" << n << " first=" << first;
          EXPECT_EQ(got, expect) << "n=" << n << " first=" << first;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, BitsAddBaseParity) {
  std::mt19937 rng(7);
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    for (size_t n : kSizes) {
      std::vector<uint32_t> deltas(n);
      for (uint32_t& d : deltas) d = rng() & 0xFFFFF;
      for (uint32_t base : {0u, FloatToBits(0.25f), 0x7F7FFFF0u}) {
        std::vector<float> expect(n), got(n);
        ScalarKernels().bits_add_base_f32(deltas.data(), n, base,
                                          expect.data());
        k->bits_add_base_f32(deltas.data(), n, base, got.data());
        // Compare bit patterns: the kernel must be exact even for inputs
        // that land on NaN/inf patterns.
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(FloatToBits(expect[i]), FloatToBits(got[i]))
              << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, CountBoundsParity) {
  std::mt19937 rng(99);
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    for (size_t n : kSizes) {
      // Ascending with long equal runs (the all-equal-lens block case).
      std::vector<float> values(n);
      float v = 0.5f;
      for (size_t i = 0; i < n; ++i) {
        if (rng() % 3 == 0) v += 0.25f;  // equal runs of expected length 3
        values[i] = v;
      }
      std::vector<float> bounds = {-1.0f, 0.5f, v, v + 1.0f,
                                   std::numeric_limits<float>::infinity()};
      for (size_t i = 0; i < n; ++i) bounds.push_back(values[i]);
      for (float bound : bounds) {
        ASSERT_EQ(ScalarKernels().count_le_f32(values.data(), n, bound),
                  k->count_le_f32(values.data(), n, bound))
            << "n=" << n << " bound=" << bound;
        ASSERT_EQ(ScalarKernels().count_lt_f32(values.data(), n, bound),
                  k->count_lt_f32(values.data(), n, bound))
            << "n=" << n << " bound=" << bound;
      }
    }
  }
}

TEST(SimdKernelsTest, CountBoundsMatchStdBounds) {
  // The scalar reference itself must agree with the STL on sorted input —
  // this is the contract SeekFirstGE/GT and the span clip rely on.
  std::vector<float> values = {0.1f, 0.1f, 0.2f, 0.5f, 0.5f, 0.5f, 0.9f};
  for (float bound : {0.05f, 0.1f, 0.3f, 0.5f, 0.9f, 1.5f}) {
    EXPECT_EQ(ScalarKernels().count_lt_f32(values.data(), values.size(),
                                           bound),
              static_cast<size_t>(
                  std::lower_bound(values.begin(), values.end(), bound) -
                  values.begin()));
    EXPECT_EQ(ScalarKernels().count_le_f32(values.data(), values.size(),
                                           bound),
              static_cast<size_t>(
                  std::upper_bound(values.begin(), values.end(), bound) -
                  values.begin()));
  }
}

/// Strictly-ascending random array of `n` uint32s.
std::vector<uint32_t> AscendingIds(std::mt19937& rng, size_t n,
                                   uint32_t max_gap) {
  std::vector<uint32_t> out(n);
  uint32_t v = rng() % 5;
  for (size_t i = 0; i < n; ++i) {
    out[i] = v;
    v += 1 + rng() % max_gap;
  }
  return out;
}

TEST(SimdKernelsTest, IntersectPositionsParity) {
  std::mt19937 rng(1234);
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    for (size_t na : kSizes) {
      for (size_t nb : {size_t{0}, size_t{1}, size_t{7}, size_t{16},
                        size_t{33}}) {
        for (uint32_t max_gap : {1u, 3u, 50u}) {
          std::vector<uint32_t> a = AscendingIds(rng, na, max_gap);
          std::vector<uint32_t> b = AscendingIds(rng, nb, max_gap);
          std::vector<uint32_t> expect(std::min(na, nb)),
              got(std::min(na, nb));
          size_t en = ScalarKernels().intersect_pos_u32(
              a.data(), na, b.data(), nb, expect.data());
          size_t gn =
              k->intersect_pos_u32(a.data(), na, b.data(), nb, got.data());
          ASSERT_EQ(en, gn) << "na=" << na << " nb=" << nb;
          for (size_t i = 0; i < en; ++i) {
            ASSERT_EQ(expect[i], got[i]) << "na=" << na << " nb=" << nb;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, IntersectIdenticalAndDisjoint) {
  for (const SpanKernels* k : AvailableVariants()) {
    SCOPED_TRACE(k->name);
    std::vector<uint32_t> a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<uint32_t> pos(a.size());
    // Full overlap: every position in order.
    ASSERT_EQ(k->intersect_pos_u32(a.data(), a.size(), a.data(), a.size(),
                                   pos.data()),
              a.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(pos[i], i);
    // Disjoint (interleaved) ids: no matches.
    std::vector<uint32_t> b = {10, 20, 30, 40};
    EXPECT_EQ(k->intersect_pos_u32(a.data(), a.size(), b.data(), b.size(),
                                   pos.data()),
              0u);
  }
}

TEST(SimdKernelsTest, DispatchHonorsForceScalar) {
  const char* force = std::getenv("SIMSEL_FORCE_SCALAR");
  const bool forced =
      force != nullptr && *force != '\0' && std::string(force) != "0";
  if (forced) {
    EXPECT_STREQ(Kernels().name, "scalar");
  } else {
    // Unforced: the dispatched table must be one of the variants this
    // machine actually supports (the best one, but "one of" is the portable
    // assertion).
    bool known = false;
    for (const SpanKernels* k : AvailableVariants()) {
      if (&Kernels() == k) known = true;
    }
    EXPECT_TRUE(known) << Kernels().name;
  }
}

}  // namespace
}  // namespace simsel::simd
