#include "sketch/minhash.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace simsel::sketch {

std::vector<uint64_t> ComponentSeeds(const SketchParams& params) {
  std::vector<uint64_t> seeds(params.k);
  uint64_t state = params.seed;
  for (uint32_t i = 0; i < params.k; ++i) seeds[i] = SplitMix64Next(&state);
  return seeds;
}

void ComputeSignature(const uint32_t* tokens, size_t n,
                      const std::vector<uint64_t>& seeds, uint64_t* out) {
  const size_t k = seeds.size();
  for (size_t i = 0; i < k; ++i) out[i] = std::numeric_limits<uint64_t>::max();
  // Component-major over chunks of token bases: each component's running
  // min stays in a register across the chunk instead of a load and store
  // of out[i] per (token, component). A min does not depend on the order
  // it is taken in, so the signature is bit-identical to a token-major
  // loop for any chunking.
  constexpr size_t kChunk = 256;
  uint64_t bases[kChunk];
  for (size_t first = 0; first < n; first += kChunk) {
    const size_t m = std::min(kChunk, n - first);
    // One shared mix of the token, salted per component: cheaper than k
    // independent mixes and just as well distributed for min-taking.
    for (size_t j = 0; j < m; ++j) {
      bases[j] = Mix64(tokens[first + j] + 0x9E3779B97F4A7C15ULL);
    }
    for (size_t i = 0; i < k; ++i) {
      const uint64_t seed = seeds[i];
      uint64_t min = out[i];
      for (size_t j = 0; j < m; ++j) {
        const uint64_t h = Mix64(bases[j] ^ seed);
        min = h < min ? h : min;
      }
      out[i] = min;
    }
  }
}

double EstimateJaccard(const uint64_t* a, const uint64_t* b, uint32_t k) {
  uint32_t equal = 0;
  for (uint32_t i = 0; i < k; ++i) equal += a[i] == b[i];
  return k == 0 ? 0.0 : static_cast<double>(equal) / k;
}

double AdmissionEpsilon(const SketchParams& params) {
  return std::sqrt(std::log(1.0 / params.miss_bound) / (2.0 * params.k));
}

double EngageThreshold(const SketchParams& params) {
  const double per_band = 1.0 - std::pow(params.miss_bound, 1.0 / params.bands);
  return std::pow(per_band, 1.0 / params.rows);
}

}  // namespace simsel::sketch
