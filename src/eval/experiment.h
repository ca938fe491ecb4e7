#ifndef SIMSEL_EVAL_EXPERIMENT_H_
#define SIMSEL_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/selector.h"
#include "gen/corpus.h"
#include "gen/workload.h"

namespace simsel {

/// A word-level benchmark environment mirroring Section VIII-A: the
/// synthetic corpus is split into word occurrences, each occurrence becomes
/// one database set (3-gram tokenized), exactly like the paper's IMDB word
/// table where every word location has its own identifier.
struct BenchEnv {
  std::unique_ptr<SimilaritySelector> selector;
  /// The word-occurrence records the selector indexes.
  std::vector<std::string> words;
};

struct BenchEnvOptions {
  /// Number of word occurrences to index.
  size_t num_words = 100000;
  /// Underlying corpus vocabulary size (controls duplicate/idf structure).
  size_t vocab_size = 30000;
  uint64_t seed = 42;
  bool with_sql_baseline = false;
  /// Build the sketch prefilter tier (InvertedIndexOptions::build_sketches).
  bool with_sketches = false;
  int qgram = 3;
};

BenchEnv MakeBenchEnv(const BenchEnvOptions& options);

/// Aggregate cost of running one workload with one algorithm configuration.
struct WorkloadStats {
  std::string label;
  double total_ms = 0.0;
  double avg_ms = 0.0;
  double avg_results = 0.0;
  double pruning_power = 0.0;  // from pooled counters, in [0, 1]
  AccessCounters counters;     // pooled over all queries
  size_t num_queries = 0;
};

/// Runs every query of `workload` with `kind`/`options` and pools timings
/// and counters.
WorkloadStats RunWorkload(const SimilaritySelector& selector,
                          const Workload& workload, double tau,
                          AlgorithmKind kind, const SelectOptions& options,
                          const std::string& label);

/// Parses `--key=value` style overrides used by the bench mains.
/// Returns `fallback` when the flag is absent or malformed.
size_t FlagValue(int argc, char** argv, const std::string& key,
                 size_t fallback);

}  // namespace simsel

#endif  // SIMSEL_EVAL_EXPERIMENT_H_
