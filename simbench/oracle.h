#ifndef SIMBENCH_ORACLE_H_
#define SIMBENCH_ORACLE_H_

// Exactness checks: two answers agree only when they list the same set ids
// in the same order with bit-identical scores.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/types.h"

namespace simbench {

inline uint64_t ScoreBits(double score) {
  uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

/// Empty when `got` equals `want` byte for byte; otherwise a one-line
/// description of the first difference.
inline std::string DiffMatches(const std::vector<simsel::Match>& want,
                               const std::vector<simsel::Match>& got) {
  if (want.size() != got.size()) {
    return "match count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].id != got[i].id) {
      return "match " + std::to_string(i) + ": id " +
             std::to_string(got[i].id) + " != " + std::to_string(want[i].id);
    }
    if (ScoreBits(want[i].score) != ScoreBits(got[i].score)) {
      return "match " + std::to_string(i) + " (id " +
             std::to_string(want[i].id) + "): score bits differ";
    }
  }
  return std::string();
}

}  // namespace simbench

#endif  // SIMBENCH_ORACLE_H_
