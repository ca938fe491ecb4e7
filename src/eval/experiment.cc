#include "eval/experiment.h"

#include <cstdlib>
#include <string_view>

#include "common/timer.h"

namespace simsel {

BenchEnv MakeBenchEnv(const BenchEnvOptions& options) {
  CorpusOptions corpus_options;
  corpus_options.vocab_size = options.vocab_size;
  corpus_options.seed = options.seed;
  // Records average ~2.5 words; generate enough records, then flatten.
  corpus_options.num_records = options.num_words / 2 + 16;
  Corpus corpus = GenerateCorpus(corpus_options);

  Tokenizer word_tok(TokenizerOptions{.kind = TokenizerKind::kWord});
  BenchEnv env;
  env.words.reserve(options.num_words);
  for (const std::string& rec : corpus.records) {
    for (std::string& w : word_tok.Tokenize(rec)) {
      env.words.push_back(std::move(w));
      if (env.words.size() >= options.num_words) break;
    }
    if (env.words.size() >= options.num_words) break;
  }

  BuildOptions build;
  build.tokenizer.kind = TokenizerKind::kQGram;
  build.tokenizer.q = options.qgram;
  build.build_sql_baseline = options.with_sql_baseline;
  build.index.build_sketches = options.with_sketches;
  env.selector = std::make_unique<SimilaritySelector>(
      SimilaritySelector::Build(env.words, build));
  return env;
}

WorkloadStats RunWorkload(const SimilaritySelector& selector,
                          const Workload& workload, double tau,
                          AlgorithmKind kind, const SelectOptions& options,
                          const std::string& label) {
  WorkloadStats stats;
  stats.label = label;
  stats.num_queries = workload.queries.size();
  uint64_t total_results = 0;
  for (const std::string& query : workload.queries) {
    PreparedQuery q = selector.Prepare(query);
    WallTimer timer;
    QueryResult result = selector.SelectPrepared(q, tau, kind, options);
    stats.total_ms += timer.ElapsedMillis();
    stats.counters.Merge(result.counters);
    total_results += result.matches.size();
  }
  if (stats.num_queries > 0) {
    stats.avg_ms = stats.total_ms / static_cast<double>(stats.num_queries);
    stats.avg_results =
        static_cast<double>(total_results) /
        static_cast<double>(stats.num_queries);
  }
  stats.pruning_power = stats.counters.PruningPower();
  return stats;
}

size_t FlagValue(int argc, char** argv, const std::string& key,
                 size_t fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, prefix.size()) == prefix) {
      char* end = nullptr;
      unsigned long long v =
          std::strtoull(arg.data() + prefix.size(), &end, 10);
      if (end != arg.data() + prefix.size()) return static_cast<size_t>(v);
    }
  }
  return fallback;
}

}  // namespace simsel
