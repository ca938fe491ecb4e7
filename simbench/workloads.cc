#include "workloads.h"

#include <cstdio>

#include "gen/corpus.h"
#include "obs/export.h"
#include "text/tokenizer.h"

namespace simbench {

std::vector<std::string> MakeWords(size_t num_words) {
  simsel::CorpusOptions corpus_options;
  corpus_options.vocab_size = 30000;
  corpus_options.seed = kCorpusSeed;
  // Records average ~2.5 words; generate enough records, then flatten.
  corpus_options.num_records = num_words / 2 + 16;
  simsel::Corpus corpus = simsel::GenerateCorpus(corpus_options);
  simsel::Tokenizer word_tok(
      simsel::TokenizerOptions{.kind = simsel::TokenizerKind::kWord});
  std::vector<std::string> words;
  words.reserve(num_words);
  for (const std::string& rec : corpus.records) {
    for (std::string& w : word_tok.Tokenize(rec)) {
      if (words.size() >= num_words) return words;
      words.push_back(std::move(w));
    }
  }
  return words;
}

uint64_t InputBytes(const std::vector<std::string>& records) {
  uint64_t bytes = 0;
  for (const std::string& r : records) bytes += r.size();
  return bytes;
}

void SetSetup(const std::vector<double>& reps, Report* report) {
  report->Set("setup_s", Median(reps));
  std::string arr = "[";
  for (size_t i = 0; i < reps.size(); ++i) {
    arr += (i > 0 ? "," : "") + Num(reps[i]);
  }
  report->Section("setup_reps_s", arr + "]");
  report->Line("setup: median " + Num(Median(reps)) + " s over " +
               std::to_string(reps.size()) + " repetitions");
}

uint64_t SizeTotal(const simsel::IndexSizeReport& s) {
  return s.base_table + s.gram_table + s.btree + s.inverted_lists +
         s.skip_lists + s.extendible_hash + s.sketches;
}

bool WriteSpans(const SpanLog& log, const Report& report) {
  if (!MakeDirs(report.config().out_dir)) return false;
  const std::string path =
      report.config().out_dir + "/" + report.config().workload + ".spans.jsonl";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : log.spans()) {
    std::fprintf(f,
                 "{\"request\":%llu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.request), s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::string JsonString(const std::string& s) {
  return "\"" + simsel::obs::JsonWriter::Escape(s) + "\"";
}

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(fields[i].first) + ":" + fields[i].second;
  }
  return out + "}";
}

}  // namespace simbench
