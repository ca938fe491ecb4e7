#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string_view>
#include <unordered_set>

#include "gen/corpus.h"
#include "gen/error_model.h"
#include "gen/load.h"
#include "gen/workload.h"
#include "gen/zipf.h"

namespace simsel {
namespace {

// Levenshtein distance for validating the error model.
int EditDistance(const std::string& a, const std::string& b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int sub = prev[j - 1] + (a[i - 1] != b[j - 1]);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

TEST(ZipfTest, CdfIsValidDistribution) {
  ZipfSampler zipf(100, 1.0);
  double total = 0;
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_GT(zipf.Pmf(i), 0.0);
    total += zipf.Pmf(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SkewConcentratesMassOnLowRanks) {
  ZipfSampler zipf(1000, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(100));
  Rng rng(5);
  size_t low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) low += (zipf.Sample(&rng) < 10);
  // Top-10 ranks of Zipf(1.0, 1000) carry ~39% of the mass.
  EXPECT_GT(low, n / 4u);
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(zipf.Pmf(i), 0.1, 1e-9);
}

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler zipf(7, 1.2);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(&rng), 7u);
}

TEST(CorpusTest, DeterministicForSeed) {
  CorpusOptions o;
  o.num_records = 100;
  o.vocab_size = 50;
  Corpus a = GenerateCorpus(o);
  Corpus b = GenerateCorpus(o);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.vocabulary, b.vocabulary);
}

TEST(CorpusTest, SeedChangesOutput) {
  CorpusOptions o;
  o.num_records = 100;
  o.vocab_size = 50;
  Corpus a = GenerateCorpus(o);
  o.seed = o.seed + 1;
  Corpus b = GenerateCorpus(o);
  EXPECT_NE(a.records, b.records);
}

TEST(CorpusTest, RespectsSizes) {
  CorpusOptions o;
  o.num_records = 250;
  o.vocab_size = 80;
  o.min_words = 2;
  o.max_words = 3;
  Corpus c = GenerateCorpus(o);
  EXPECT_EQ(c.records.size(), 250u);
  EXPECT_EQ(c.vocabulary.size(), 80u);
  for (const std::string& rec : c.records) {
    size_t words = 1 + std::count(rec.begin(), rec.end(), ' ');
    EXPECT_GE(words, 2u);
    EXPECT_LE(words, 3u);
  }
}

TEST(CorpusTest, WordLengthsWithinBounds) {
  CorpusOptions o;
  o.num_records = 10;
  o.vocab_size = 200;
  o.min_word_len = 3;
  o.max_word_len = 8;
  Corpus c = GenerateCorpus(o);
  for (const std::string& w : c.vocabulary) {
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 8u);
  }
}

TEST(CorpusTest, VocabularyIsDistinct) {
  CorpusOptions o;
  o.num_records = 1;
  o.vocab_size = 500;
  Corpus c = GenerateCorpus(o);
  std::unordered_set<std::string> set(c.vocabulary.begin(),
                                      c.vocabulary.end());
  EXPECT_EQ(set.size(), c.vocabulary.size());
}

TEST(CorpusTest, LoadFromFile) {
  auto path =
      (std::filesystem::temp_directory_path() / "simsel_corpus.txt").string();
  {
    std::ofstream out(path);
    out << "first record\n\nsecond record\nthird\n";
  }
  Result<Corpus> c = LoadCorpusFromFile(path);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->records.size(), 3u);
  EXPECT_EQ(c->records[0], "first record");
  EXPECT_EQ(c->records[2], "third");

  Result<Corpus> capped = LoadCorpusFromFile(path, 2);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->records.size(), 2u);
  std::remove(path.c_str());

  Result<Corpus> missing = LoadCorpusFromFile(path + ".nope");
  EXPECT_FALSE(missing.ok());
}

TEST(ErrorModelTest, ModificationsBoundEditDistance) {
  Rng rng(17);
  for (int k = 0; k <= 3; ++k) {
    for (int trial = 0; trial < 50; ++trial) {
      std::string src = "representative";
      std::string dst = ApplyModifications(src, k, &rng);
      // A swap counts as at most 2 unit edits.
      EXPECT_LE(EditDistance(src, dst), 2 * k);
    }
  }
}

TEST(ErrorModelTest, ZeroModificationsIsIdentity) {
  Rng rng(1);
  EXPECT_EQ(ApplyModifications("hello", 0, &rng), "hello");
}

TEST(ErrorModelTest, EditsNeverEmptyTheString) {
  Rng rng(23);
  std::string s = "ab";
  for (int i = 0; i < 100; ++i) {
    s = ApplyEdit(s, EditKind::kDelete, &rng);
    EXPECT_GE(s.size(), 1u);
  }
}

TEST(ErrorModelTest, InsertGrowsDeleteShrinks) {
  Rng rng(29);
  EXPECT_EQ(ApplyEdit("abc", EditKind::kInsert, &rng).size(), 4u);
  EXPECT_EQ(ApplyEdit("abc", EditKind::kDelete, &rng).size(), 2u);
  EXPECT_EQ(ApplyEdit("abc", EditKind::kSwap, &rng).size(), 3u);
  EXPECT_EQ(ApplyEdit("abc", EditKind::kSubstitute, &rng).size(), 3u);
}

TEST(ErrorModelTest, ErrorRateDecreasesWithLevel) {
  for (int level = 1; level < 8; ++level) {
    EXPECT_GT(ErrorRateForLevel(level), ErrorRateForLevel(level + 1));
  }
  EXPECT_GT(ErrorRateForLevel(8), 0.0);
  EXPECT_LT(ErrorRateForLevel(1), 1.0);
}

TEST(ErrorModelTest, DirtyDatasetStructure) {
  std::vector<std::string> clean = {"alpha", "beta", "gamma"};
  DirtyDatasetOptions o;
  o.level = 8;
  o.num_clean = 3;
  o.duplicates_per_record = 2;
  LabeledDataset ds = MakeDirtyDataset(clean, o);
  EXPECT_EQ(ds.num_clean, 3u);
  ASSERT_EQ(ds.records.size(), 9u);
  ASSERT_EQ(ds.source.size(), 9u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ds.records[i], clean[i]);
    EXPECT_EQ(ds.source[i], i);
  }
  for (size_t i = 3; i < 9; ++i) EXPECT_LT(ds.source[i], 3u);
}

TEST(ErrorModelTest, HigherLevelsAreCleaner) {
  std::vector<std::string> clean;
  for (int i = 0; i < 50; ++i) {
    clean.push_back("record_number_" + std::to_string(i) + "_payload");
  }
  auto total_distance = [&](int level) {
    DirtyDatasetOptions o;
    o.level = level;
    o.num_clean = clean.size();
    o.duplicates_per_record = 2;
    LabeledDataset ds = MakeDirtyDataset(clean, o);
    int dist = 0;
    for (size_t i = ds.num_clean; i < ds.records.size(); ++i) {
      dist += EditDistance(ds.records[i], clean[ds.source[i]]);
    }
    return dist;
  };
  EXPECT_GT(total_distance(1), total_distance(8));
}

TEST(WorkloadTest, BucketsByGramCount) {
  std::vector<std::string> records = {"tiny words here",
                                      "somewhatlonger tokens inside",
                                      "unreasonablylongsingleword"};
  Tokenizer grams;  // q=3 padded
  WorkloadOptions o;
  o.num_queries = 20;
  o.min_tokens = 6;
  o.max_tokens = 10;
  o.modifications = 0;
  Workload wl = GenerateWordWorkload(records, grams, o);
  ASSERT_EQ(wl.queries.size(), 20u);
  for (const std::string& q : wl.queries) {
    size_t grams_count = grams.CountTokens(q);
    EXPECT_GE(grams_count, 6u);
    EXPECT_LE(grams_count, 10u);
  }
}

TEST(WorkloadTest, ModificationsChangeQueries) {
  std::vector<std::string> records = {"alphabet soup kitchen counter"};
  Tokenizer grams;
  WorkloadOptions o;
  o.num_queries = 10;
  o.min_tokens = 1;
  o.max_tokens = 30;
  o.modifications = 2;
  Workload wl = GenerateWordWorkload(records, grams, o);
  ASSERT_EQ(wl.queries.size(), 10u);
  int changed = 0;
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    changed += (wl.queries[i] != wl.sources[i]);
  }
  EXPECT_GT(changed, 5);
}

TEST(WorkloadTest, EmptyWhenBucketUnpopulated) {
  std::vector<std::string> records = {"short"};
  Tokenizer grams;
  WorkloadOptions o;
  o.min_tokens = 50;
  o.max_tokens = 60;
  Workload wl = GenerateWordWorkload(records, grams, o);
  EXPECT_TRUE(wl.queries.empty());
}

TEST(WorkloadTest, DeterministicForSeed) {
  std::vector<std::string> records = {"several distinct words for sampling",
                                      "another record with more words"};
  Tokenizer grams;
  WorkloadOptions o;
  o.num_queries = 15;
  o.min_tokens = 1;
  o.max_tokens = 30;
  o.modifications = 1;
  Workload a = GenerateWordWorkload(records, grams, o);
  Workload b = GenerateWordWorkload(records, grams, o);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.sources, b.sources);
}

// Response lines come off the wire: a malformed one must be rejected, never
// abort the client. The match count used to size a reserve() directly, so
// a huge count threw length_error / bad_alloc.
TEST(LoadParseTest, HostileResponsesAreRejectedWithoutAborting) {
  const char* const kBad[] = {
      "a OK 1 18446744073709551615 3:0.5",        // count = UINT64_MAX
      "a OK 1 4000000000000 3:0.5",               // count beyond memory
      "a PARTIAL budget 1 18446744073709551615",  // huge count, no pairs
      "a OK 1 3 3:0.5 4:0.25",                    // count > pairs
      "a OK 1 1 3",                               // pair with no colon
      "a OK 1 1 3:abc",                           // non-numeric score
      "a OK 1 1 3:0.5 junk",                      // trailing junk
  };
  for (const char* line : kBad) {
    load::Response r;
    EXPECT_FALSE(load::ParseResponse(line, &r)) << line;
  }
  load::Response ok;
  ASSERT_TRUE(load::ParseResponse("a OK 7 2 3:0.5 4:0.25", &ok));
  EXPECT_EQ(ok.version, 7u);
  ASSERT_EQ(ok.matches.size(), 2u);
  EXPECT_EQ(ok.matches[1].id, 4u);
  EXPECT_EQ(ok.matches[1].score, 0.25);
}

// Seeded byte mutations of valid OK, PARTIAL, INS, SHED, ERR and PONG
// response lines — flipped, inserted and deleted bytes, NULs, carriage
// returns, runs of spaces and 300-digit counts — mirroring the server's
// request-line test. The parser must never throw, and a line it accepts as
// OK or PARTIAL must carry exactly the matches its count field names.
TEST(LoadParseTest, MutatedResponsesNeverThrow) {
  using Kind = load::Response::Kind;
  struct Line {
    std::string text;
    Kind kind;
    size_t matches;
  };
  const std::string digits300 = "1" + std::string(299, '0');
  const std::vector<Line> valid = {
      {"r1 OK 7 2 3:0.5 4:0.25", Kind::kOk, 2},
      {"r2 OK 0 0", Kind::kOk, 0},
      {"r3 PARTIAL budget 3 1 9:0.75", Kind::kPartial, 1},
      {"r4 INS 41 8", Kind::kInsert, 0},
      {"r5 SHED", Kind::kShed, 0},
      {"r6 ERR bad request", Kind::kError, 0},
      {"r7 PONG", Kind::kPong, 0},
  };
  for (const Line& line : valid) {
    load::Response r;
    ASSERT_TRUE(load::ParseResponse(line.text, &r)) << line.text;
    EXPECT_EQ(r.kind, line.kind) << line.text;
    EXPECT_EQ(r.matches.size(), line.matches) << line.text;
  }
  for (const std::string& line :
       {"r8 OK 7 " + digits300 + " 3:0.5", "r9 PARTIAL deadline 2 " + digits300,
        "r10 INS " + digits300 + " 1"}) {
    load::Response r;
    EXPECT_FALSE(load::ParseResponse(line, &r)) << line;
  }

  std::mt19937 rng(20261019);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
  };
  const char kSpecial[] = {'\0', '\r', ' ', '\t', '0', '9', ':', '-'};
  size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string line = valid[pick(valid.size())].text;
    const size_t edits = 1 + pick(3);
    for (size_t e = 0; e < edits; ++e) {
      const size_t at = pick(line.size() + 1);
      switch (pick(5)) {
        case 0:  // flip
          if (at < line.size()) {
            line[at] = static_cast<char>(line[at] ^ (1 + pick(255)));
          }
          break;
        case 1:  // insert
          line.insert(at, 1, kSpecial[pick(sizeof(kSpecial))]);
          break;
        case 2:  // delete
          if (at < line.size()) line.erase(at, 1);
          break;
        case 3:  // run of spaces
          line.insert(at, 1 + pick(6), ' ');
          break;
        default:  // a 300-digit number
          line.insert(at, digits300);
          break;
      }
    }
    load::Response r;
    bool ok = false;
    EXPECT_NO_THROW(ok = load::ParseResponse(line, &r)) << line;
    if (!ok) continue;
    ++accepted;
    if (r.kind != Kind::kOk && r.kind != Kind::kPartial) continue;
    // id kind [reason] version count pairs...
    std::vector<std::string_view> fields;
    for (size_t begin = 0;;) {
      const size_t space = line.find(' ', begin);
      fields.push_back(std::string_view(line).substr(
          begin, space == std::string::npos ? std::string::npos
                                            : space - begin));
      if (space == std::string::npos) break;
      begin = space + 1;
    }
    const size_t count_at = r.kind == Kind::kOk ? 3 : 4;
    ASSERT_LT(count_at, fields.size()) << line;
    uint64_t count = 0;
    const std::string_view field = fields[count_at];
    const auto [end, ec] =
        std::from_chars(field.data(), field.data() + field.size(), count);
    EXPECT_TRUE(ec == std::errc() && end == field.data() + field.size())
        << "accepted a count that is not a decimal number: " << line;
    EXPECT_EQ(r.matches.size(), count) << line;
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace simsel
