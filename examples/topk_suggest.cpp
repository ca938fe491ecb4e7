// Top-k suggestion — the paper's future-work extension in action: given a
// misspelled name, return the k most similar database entries ranked by IDF
// similarity, with no threshold to tune.
//
//   $ topk_suggest [--records=N] [--k=N] "jonh smth" ...

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/selector.h"
#include "eval/experiment.h"
#include "gen/corpus.h"
#include "gen/error_model.h"

int main(int argc, char** argv) {
  using namespace simsel;
  const size_t num_records = FlagValue(argc, argv, "records", 20000);
  const size_t k = FlagValue(argc, argv, "k", 5);

  CorpusOptions co;
  co.num_records = num_records;
  co.min_words = 2;
  co.max_words = 2;  // first/last "names"
  co.vocab_size = 4000;
  co.seed = 3;
  Corpus corpus = GenerateCorpus(co);
  SimilaritySelector selector = SimilaritySelector::Build(corpus.records);
  std::printf("indexed %zu two-word names\n", corpus.records.size());

  std::vector<std::string> queries;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) queries.push_back(arg);
  }
  if (queries.empty()) {
    // Misspell a few database entries as demo queries.
    Rng rng(17);
    for (int i = 0; i < 4; ++i) {
      std::string name = corpus.records[rng.NextBounded(corpus.records.size())];
      queries.push_back(ApplyModifications(name, 2, &rng));
    }
  }

  for (const std::string& query : queries) {
    WallTimer timer;
    QueryResult r = selector.SelectTopK(query, k);
    // Top-k reruns SF at a falling τ, so it may read a list more than once.
    std::printf("\n\"%s\" -> top-%zu in %.2f ms (%llu postings read, lists"
                " hold %llu)\n",
                query.c_str(), k, timer.ElapsedMillis(),
                (unsigned long long)r.counters.elements_read,
                (unsigned long long)r.counters.elements_total);
    for (const Match& m : r.matches) {
      std::printf("  %-28s %.3f\n", selector.collection().text(m.id).c_str(),
                  m.score);
    }
  }
  return 0;
}
