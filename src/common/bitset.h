#ifndef SIMSEL_COMMON_BITSET_H_
#define SIMSEL_COMMON_BITSET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace simsel {

/// The membership-word layout shared by DynamicBitset and the candidate
/// arenas of core/: a bitmap of n bits is BitWords(n) uint64_t words, bit i
/// in word i/64 at position i%64, and no bit at or past n is set.
inline size_t BitWords(size_t n) { return (n + 63) / 64; }
inline bool TestBit(const uint64_t* words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}
inline void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}
inline void ClearBit(uint64_t* words, size_t i) {
  words[i >> 6] &= ~(uint64_t{1} << (i & 63));
}
/// Calls fn(i) for every set bit i of an n-bit bitmap, in ascending i.
template <class Fn>
inline void ForEachSetBit(const uint64_t* words, size_t n, Fn&& fn) {
  for (size_t base = 0; base < n; base += 64) {
    for (uint64_t w = words[base >> 6]; w != 0; w &= w - 1) {
      fn(base + static_cast<size_t>(__builtin_ctzll(w)));
    }
  }
}

/// Fixed-width bitset sized at runtime; the candidate bookkeeping bit vector
/// b[1,n] of the NRA/TA family (one bit per query list). Queries rarely have
/// more than a few dozen tokens, so this is one or two words in practice.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t n) : n_(n), words_(BitWords(n), 0) {}

  size_t size() const { return n_; }

  void Set(size_t i) {
    SIMSEL_DCHECK(i < n_);
    SetBit(words_.data(), i);
  }

  void Clear(size_t i) {
    SIMSEL_DCHECK(i < n_);
    ClearBit(words_.data(), i);
  }

  /// Clears every bit without reallocating (cheap reuse in merge loops).
  void ResetAll() { std::fill(words_.begin(), words_.end(), 0); }

  bool Test(size_t i) const {
    SIMSEL_DCHECK(i < n_);
    return TestBit(words_.data(), i);
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  bool All() const { return Count() == n_; }
  bool None() const { return Count() == 0; }

  /// The BitWords(size()) words, in the layout above.
  const uint64_t* words() const { return words_.data(); }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace simsel

#endif  // SIMSEL_COMMON_BITSET_H_
