// The differential oracle: one seeded property harness over the
// configuration cross-product. The paper's central claim is exactness —
// every algorithm returns exactly {s : I(q,s) >= τ} — and simsel promises
// that answer, score bits included, across storage modes, segment counts,
// static and dynamic indexes, saved image versions and the sketch
// prefilter. Every configuration is checked against an independent
// reference:
//   - a static front door against LinearScan over the same world;
//   - a dynamic index's delta records against a brute-force pass over their
//     texts with the frozen statistics (AppendDeltaMatches), which never
//     touches the delta's own index;
//   - a rebuilt dynamic index against LinearScan over a fresh build of
//     every record.
// Tier-1 runs every value of every axis against every algorithm: one axis
// at a time from the default configuration, plus a few seeded full
// configurations per world. SIMSEL_SOAK=1 runs more seeds, larger corpora
// and random ablation masks, and reduces a failure to the smallest set of
// axes that still fails. The SIMD kernel variants are covered by rerunning
// the suite with SIMSEL_FORCE_SCALAR=1 (scripts/check.sh leg 2).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/dynamic.h"
#include "core/internal.h"
#include "core/linear_scan.h"
#include "core/selector.h"
#include "serve/dynamic_serving.h"
#include "serve/sharded_selector.h"
#include "storage/codec.h"
#include "storage/posting_store.h"
#include "test_util.h"

namespace simsel {
namespace {

using testing_util::MatchDifference;
using testing_util::PartialDifference;

bool Soak() {
  const char* env = std::getenv("SIMSEL_SOAK");
  return env != nullptr && env[0] == '1';
}

// --- Worlds: a corpus shape, its queries and its reference. ---

/// A query of a world. A planted boundary query may own its threshold,
/// which then overrides the τ axis.
struct Query {
  std::string name;
  std::string text;
  bool one_token = false;  // keep only the first prepared token
  std::optional<double> tau = std::nullopt;
};

struct World {
  std::string shape;
  uint64_t seed = 0;
  BuildOptions build;  // tokenizer and page sizes; K = 1, memory
  std::vector<std::string> records;
  std::vector<std::string> inserts;  // the delta of a dynamic index
  std::vector<Query> queries;
  std::unique_ptr<SimilaritySelector> reference;  // Build(records, build)
};

BuildOptions WorldBuild(TokenizerKind tokenizer) {
  BuildOptions build;
  build.tokenizer.kind = tokenizer;
  build.tokenizer.q = 3;
  build.build_sql_baseline = true;
  // Small pages and blocks so test-sized lists span several of each.
  build.index.page_bytes = 512;
  build.index.hash_page_bytes = 256;
  build.index.block_postings = 16;
  build.btree_page_bytes = 512;
  return build;
}

std::vector<std::string> WordRecords(size_t n, size_t vocab, int max_words,
                                     uint64_t seed) {
  CorpusOptions o;
  o.num_records = n;
  o.vocab_size = vocab;
  o.min_words = 1;
  o.max_words = max_words;
  o.seed = seed;
  return GenerateCorpus(o).records;
}

// Records around queries of 63, 64, 65 and 130 distinct tokens, the
// boundaries of the kernels' 64-bit membership words: each record keeps a
// random 50-100% of one query's tokens (so members on both sides of bit 64
// go missing) plus a few tokens outside it.
std::vector<std::string> WideRecords(uint64_t seed,
                                     std::vector<Query>* queries) {
  Rng rng(seed);
  std::vector<std::string> records;
  for (size_t n : {63, 64, 65, 130}) {
    auto token = [n](size_t t) {
      return "n" + std::to_string(n) + "t" + std::to_string(t) + " ";
    };
    std::string query;
    for (size_t t = 0; t < n; ++t) query += token(t);
    queries->push_back({std::to_string(n) + "-tokens", query});
    records.push_back(query);
    for (int r = 0; r < 12; ++r) {
      const uint64_t keep = 50 + rng.NextBounded(51);
      std::string text;
      for (size_t t = 0; t < n + 16; ++t) {
        if (rng.NextBounded(100) < (t < n ? keep : 20)) text += token(t);
      }
      records.push_back(text);
    }
  }
  return records;
}

/// Builds the reference and plants the boundary queries: the empty query,
/// an all-out-of-vocabulary one, a one-token PreparedQuery, a record whose
/// self-score is exactly 1.0 at τ = 1, and τ equal to a reported score.
void FinishWorld(World* w, size_t num_queries) {
  w->reference = std::make_unique<SimilaritySelector>(
      SimilaritySelector::Build(w->records, w->build));
  const SimilaritySelector& ref = *w->reference;
  const SetId n = static_cast<SetId>(w->records.size());
  for (std::string& text :
       testing_util::MakeQueries(w->records, num_queries, w->seed + 1)) {
    w->queries.push_back({"record", std::move(text)});
  }
  w->queries.push_back({"empty", ""});
  w->queries.push_back({"oov", "0123456789"});
  w->queries.push_back({"one-token", w->records[3 % n], true});
  for (SetId s = 0; s < n; ++s) {
    if (ref.measure().Score(ref.Prepare(w->records[s]), s) >= 1.0) {
      w->queries.push_back({"self-score-1", w->records[s], false, 1.0});
      break;
    }
  }
  std::optional<Query> boundary;
  for (SetId s = 0; s < std::min<SetId>(n, 20); ++s) {
    const PreparedQuery q = ref.Prepare(w->records[s]);
    for (const Match& m :
         LinearScanSelect(ref.measure(), ref.collection(), q, 0.5).matches) {
      if (m.score < 1.0 && (!boundary || m.score < *boundary->tau)) {
        boundary = Query{"tau-equals-score", w->records[s], false, m.score};
      }
    }
  }
  if (boundary) w->queries.push_back(*boundary);
  w->queries.push_back({"inserted", w->inserts.back()});
}

World MakeWorld(std::string shape, uint64_t seed, TokenizerKind tokenizer,
                std::vector<std::string> records, size_t num_queries,
                std::vector<Query> planted = {}) {
  World w;
  w.shape = std::move(shape);
  w.seed = seed;
  w.build = WorldBuild(tokenizer);
  w.records = std::move(records);
  w.queries = std::move(planted);
  // Tokens unknown to the main part, an empty record, near-duplicates of
  // records, and last a copy of a record, so the last delta position holds
  // a match of the "inserted" query.
  w.inserts = {"0192837465 5647382910", ""};
  for (std::string& text : testing_util::MakeQueries(w.records, 12, seed + 2)) {
    w.inserts.push_back(std::move(text));
  }
  w.inserts.push_back(w.records[w.records.size() / 2]);
  FinishWorld(&w, num_queries);
  return w;
}

/// The worlds of a run, built one at a time: word records at three sizes
/// and vocabularies, with q = 3 grams and with the word tokenizer, then the
/// degenerate shapes.
size_t NumWorlds(bool soak) { return (soak ? 8 : 1) * 3 + 7; }

World MakeWorldAt(size_t i, bool soak) {
  constexpr TokenizerKind kGrams = TokenizerKind::kQGram;
  constexpr TokenizerKind kWords = TokenizerKind::kWord;
  const size_t scale = soak ? 6 : 1;
  const size_t queries = soak ? 30 : 6;
  const size_t word_worlds = NumWorlds(soak) - 7;
  if (i < word_worlds) {
    const uint64_t seed = 5000 + 17 * i;
    switch (i % 3) {
      case 0:
        return MakeWorld("words-q3", seed, kGrams,
                         WordRecords(150 * scale, 40 * scale, 1, seed),
                         queries);
      case 1:
        return MakeWorld("words-q3-wide-vocab", seed, kGrams,
                         WordRecords(200 * scale, 400 * scale, 2, seed),
                         queries);
      default:
        return MakeWorld("words-word-tokens", seed, kWords,
                         WordRecords(200 * scale, 30 * scale, 4, seed),
                         queries);
    }
  }
  const uint64_t seed = 9000 + i;
  switch (i - word_worlds) {
    case 0:
      return MakeWorld("all-identical", seed, kGrams,
                       std::vector<std::string>(50, "identical record"), 3);
    case 1:
      return MakeWorld("one-record", seed, kGrams, {"only one"}, 3);
    case 2:
      return MakeWorld("empty-and-whitespace", seed, kGrams,
                       {"", "   ", "real record"}, 3);
    case 3:
      return MakeWorld("single-characters", seed, kGrams,
                       {"a", "b", "c", "ab"}, 3);
    case 4: {
      std::string long_record;
      for (int t = 0; t < 200; ++t) {
        long_record += "token" + std::to_string(t) + " ";
      }
      return MakeWorld("200-token-record", seed, kWords, {long_record, "short"},
                       3);
    }
    case 5: {
      std::vector<std::string> records;
      for (int r = 0; r < 120; ++r) {
        records.push_back("common uniq" + std::to_string(r));
      }
      return MakeWorld("token-in-every-record", seed, kWords,
                       std::move(records), 4);
    }
    default: {
      std::vector<Query> planted;
      std::vector<std::string> records = WideRecords(seed, &planted);
      return MakeWorld("wide-queries", seed, kWords, std::move(records), 3,
                       std::move(planted));
    }
  }
}

// --- Configuration axes. ---

constexpr AlgorithmKind kAllKinds[] = {
    AlgorithmKind::kLinearScan, AlgorithmKind::kSql,
    AlgorithmKind::kSortById,   AlgorithmKind::kTa,
    AlgorithmKind::kNra,        AlgorithmKind::kIta,
    AlgorithmKind::kInra,       AlgorithmKind::kSf,
    AlgorithmKind::kHybrid,     AlgorithmKind::kPrefixFilter};

/// The kinds that consume posting lists, whose every posting is either read
/// or skipped.
bool ConsumesLists(AlgorithmKind kind) {
  return kind != AlgorithmKind::kLinearScan && kind != AlgorithmKind::kSql;
}

/// The τ axis: the paper's grid, out-of-range values (clamped to kMinTau,
/// or unsatisfiable above 1), and a τ seeded per query (kSeededTau).
const double kTaus[] = {0.3,  0.5,  0.7,  0.8,
                        0.9,  0.95, 1.0,  0.0,
                        -1.0, std::numeric_limits<double>::quiet_NaN(),
                        -std::numeric_limits<double>::infinity(),
                        1.5,  100.0};
constexpr int kSeededTau = static_cast<int>(std::size(kTaus));

// SelectOptions flags an ablation switches off, one bit each.
constexpr uint8_t kNoLengthBound = 1, kNoSkipIndex = 2, kNoOrder = 4,
                  kNoMagnitude = 8, kNoFCutoff = 16, kEagerScan = 32;

struct Ablation {
  const char* name;
  uint8_t mask;
};

/// No ablation, then the seven named cases of Figures 8 and 9.
constexpr Ablation kAblations[] = {
    {"none", 0},
    {"NLB", kNoLengthBound},
    {"NSL", kNoSkipIndex},
    {"NoOP", kNoOrder},
    {"NoMB", kNoMagnitude},
    {"NoFCut", kNoFCutoff},
    {"EagerScan", kEagerScan},
    {"AllOff", kNoLengthBound | kNoSkipIndex | kNoOrder | kNoMagnitude}};

enum class Storage { kMemory, kDisk, kDiskPool, kCallerStore };
enum class Door { kSelector, kSharded, kDynamic, kDelta, kRebuilt, kServing };
enum class Image { kBuilt, kV2, kV3, kV4 };
enum class Control { kNone, kBudgetOne, kBudgetSeeded, kCancel, kDeadline };

const char* const kStorageNames[] = {"memory", "disk", "disk+pool",
                                     "caller-store"};
const char* const kDoorNames[] = {"selector",        "sharded+cache",
                                  "dynamic",         "dynamic+delta",
                                  "dynamic-rebuilt", "dynamic+delta+cache"};
const char* const kImageNames[] = {"built", "v2", "v3", "v4"};
const char* const kControlNames[] = {"none", "budget=1", "budget=seeded",
                                     "cancelled", "expired-deadline"};

struct Config {
  int tau = kSeededTau;  // index into kTaus, or kSeededTau
  uint8_t ablation = 0;  // SelectOptions flags switched off
  Storage storage = Storage::kMemory;
  size_t segments = 1;
  bool pool = false;  // the segment fan-out runs on a thread pool
  Door door = Door::kSelector;
  Image image = Image::kBuilt;
  bool sketches = false;
  bool prefilter = true;
  Control control = Control::kNone;
};

/// Makes a configuration buildable: a saved image exists only for a
/// one-segment SimilaritySelector, and a caller's store images one index.
Config Normalize(Config c) {
  if (c.image != Image::kBuilt) {
    c.door = Door::kSelector;
    c.segments = 1;
  }
  if (c.storage == Storage::kCallerStore) c.segments = 1;
  return c;
}

std::string Describe(const Config& c) {
  std::ostringstream out;
  out << "tau-axis=";
  if (c.tau == kSeededTau) {
    out << "seeded";
  } else {
    out << kTaus[c.tau];
  }
  out << " ablation=";
  const Ablation* named = std::find_if(
      std::begin(kAblations), std::end(kAblations),
      [&c](const Ablation& a) { return a.mask == c.ablation; });
  if (named != std::end(kAblations)) {
    out << named->name;
  } else {
    out << "mask" << static_cast<int>(c.ablation);
  }
  out << " storage=" << kStorageNames[static_cast<int>(c.storage)]
      << " K=" << c.segments << (c.pool ? " pool" : " serial")
      << " door=" << kDoorNames[static_cast<int>(c.door)]
      << " image=" << kImageNames[static_cast<int>(c.image)]
      << " sketches=" << (c.sketches ? "on" : "off")
      << " prefilter=" << (c.prefilter ? "on" : "off")
      << " control=" << kControlNames[static_cast<int>(c.control)];
  return out.str();
}

/// The axes of `c` that differ from the default configuration.
std::string ChangedAxes(const Config& c) {
  std::istringstream axes(Describe(c)), defaults(Describe(Config()));
  std::string axis, fallback, out;
  while (axes >> axis && defaults >> fallback) {
    if (axis != fallback) out += axis + " ";
  }
  return out.empty() ? "none (the default configuration fails)" : out;
}

/// One axis at a time from the default configuration: every value of every
/// axis appears at least once.
std::vector<Config> SweepConfigs() {
  std::vector<Config> out = {Config()};
  for (int t = 0; t < kSeededTau; ++t) out.push_back({.tau = t});
  for (const Ablation& a : kAblations) {
    if (a.mask != 0) out.push_back({.ablation = a.mask});
  }
  for (Storage s :
       {Storage::kDisk, Storage::kDiskPool, Storage::kCallerStore}) {
    out.push_back({.storage = s});
  }
  for (size_t k : {3, 8}) out.push_back({.segments = k});
  for (size_t k : {1, 3, 8}) out.push_back({.segments = k, .pool = true});
  for (Door d : {Door::kSharded, Door::kDynamic, Door::kDelta,
                 Door::kRebuilt, Door::kServing}) {
    out.push_back({.door = d});
  }
  for (Image i : {Image::kV2, Image::kV3, Image::kV4}) {
    out.push_back({.image = i});
  }
  out.push_back({.sketches = true});
  out.push_back({.prefilter = false});
  out.push_back({.sketches = true, .prefilter = false});
  for (Control k : {Control::kBudgetOne, Control::kBudgetSeeded,
                    Control::kCancel, Control::kDeadline}) {
    out.push_back({.control = k});
  }
  // Combinations the replaced parity suites pinned: the tier with disk,
  // shards, a delta, a rebuild and a v4 image; a dynamic index over K
  // segments on disk; a tripped pooled fan-out over disk shards.
  out.push_back({.storage = Storage::kDisk, .sketches = true});
  for (Door d :
       {Door::kSharded, Door::kDelta, Door::kRebuilt, Door::kServing}) {
    out.push_back({.segments = 3, .door = d, .sketches = true});
  }
  out.push_back({.image = Image::kV4, .sketches = true});
  out.push_back({.storage = Storage::kDisk,
                 .segments = 3,
                 .pool = true,
                 .door = Door::kDelta});
  out.push_back(
      {.storage = Storage::kDiskPool, .segments = 8, .door = Door::kRebuilt});
  out.push_back({.storage = Storage::kDiskPool,
                 .segments = 8,
                 .pool = true,
                 .door = Door::kSharded,
                 .control = Control::kBudgetOne});
  // A limited query on a cached front door after a cached fill runs, and
  // trips, on its own.
  for (Door d : {Door::kSharded, Door::kServing}) {
    out.push_back({.door = d, .control = Control::kBudgetOne});
  }
  for (Config& c : out) c = Normalize(c);
  return out;
}

/// A seeded full configuration; the soak draws any ablation mask.
Config RandomConfig(std::mt19937_64* rng, bool soak) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  Config c;
  c.tau = static_cast<int>(pick(kSeededTau + 1));
  c.ablation = soak ? static_cast<uint8_t>(pick(64))
                    : kAblations[pick(std::size(kAblations))].mask;
  c.storage = static_cast<Storage>(pick(4));
  c.segments = std::vector<size_t>{1, 3, 8}[pick(3)];
  c.pool = pick(2) == 1;
  c.door = static_cast<Door>(pick(6));
  c.image = pick(4) == 0 ? static_cast<Image>(1 + pick(3)) : Image::kBuilt;
  c.sketches = pick(2) == 1;
  c.prefilter = pick(2) == 1;
  c.control = static_cast<Control>(pick(5));
  return Normalize(c);
}

// --- Front doors under a configuration. ---

/// One built front door: exactly one of selector, sharded, dynamic and
/// serving.
struct Front {
  std::unique_ptr<SimilaritySelector> selector;
  std::unique_ptr<serve::ShardedSelector> sharded;
  std::unique_ptr<DynamicSelector> dynamic;
  std::unique_ptr<serve::DynamicServing> serving;
  /// Beside `serving`, the same cached index that takes an insert between
  /// repeated queries, so its hits are patched; `serving` stays fixed for
  /// the reference.
  std::unique_ptr<serve::DynamicServing> patching;
  /// A rebuilt dynamic index's reference: a fresh build of every record.
  std::unique_ptr<SimilaritySelector> fresh;
  /// Storage::kCallerStore's SelectOptions::posting_store.
  std::unique_ptr<PostingStore> store;

  void SetPool(ThreadPool* pool) {
    if (selector) selector->set_thread_pool(pool);
    if (sharded) sharded->set_thread_pool(pool);
    if (dynamic) dynamic->set_thread_pool(pool);
    if (serving) serving->selector().set_thread_pool(pool);
    if (patching) patching->selector().set_thread_pool(pool);
  }
  /// The dynamic index of a dynamic or serving door, else null.
  const DynamicSelector* Dynamic() const {
    return serving ? &serving->selector() : dynamic.get();
  }
  /// The result cache a text query goes through, or null.
  serve::ResultCache* Cache(const Query& query) const {
    if (sharded) return sharded->result_cache();
    return serving && !query.one_token ? serving->result_cache() : nullptr;
  }
  /// Runs `query` through the text entry, or `q` through the prepared one
  /// when the query exists only prepared.
  QueryResult Select(const Query& query, const PreparedQuery& q, double tau,
                     AlgorithmKind kind, const SelectOptions& options) const {
    if (query.one_token) {
      if (selector) return selector->SelectPrepared(q, tau, kind, options);
      if (sharded) return sharded->SelectPrepared(q, tau, kind, options);
      return Dynamic()->snapshot().SelectPrepared(q, tau, kind, options);
    }
    if (selector) return selector->Select(query.text, tau, kind, options);
    if (sharded) return sharded->Select(query.text, tau, kind, options);
    if (serving) return serving->Select(query.text, tau, kind, options);
    return dynamic->Select(query.text, tau, kind, options);
  }
  size_t num_segments() const {
    if (selector) return selector->num_segments();
    if (sharded) return sharded->num_shards();
    return Dynamic()->snapshot().main().num_segments();
  }
};

/// Builds the front door of `c` over `w`, or says why it could not.
std::unique_ptr<Front> BuildFront(const World& w, const Config& c,
                                  std::string* error) {
  BuildOptions build = w.build;
  build.index.build_sketches = c.sketches;
  const bool disk =
      c.storage == Storage::kDisk || c.storage == Storage::kDiskPool;
  const size_t pool_pages = c.storage == Storage::kDiskPool ? 64 : 0;
  auto f = std::make_unique<Front>();
  size_t num_records = w.records.size();
  if (c.door == Door::kSharded) {
    serve::ShardedSelectorOptions options;
    options.build = build;
    options.num_shards = c.segments;
    options.disk_mode = disk;
    options.pool_pages = pool_pages;
    options.cache_bytes = 1 << 20;
    f->sharded = std::make_unique<serve::ShardedSelector>(
        serve::ShardedSelector::Build(w.records, options));
  } else {
    build.num_segments = c.segments;
    build.disk_mode = disk;
    build.pool_pages = pool_pages;
  }
  if (c.door == Door::kSelector) {
    f->selector = std::make_unique<SimilaritySelector>(
        SimilaritySelector::Build(w.records, build));
    const std::string path = ::testing::TempDir() + "oracle_test." +
                             std::to_string(::getpid()) + ".simsel";
    if (c.image != Image::kBuilt) {
      const uint32_t version =
          c.image == Image::kV2   ? InvertedIndex::kVersionLegacy
          : c.image == Image::kV3 ? InvertedIndex::kVersionBlocks
                                  : InvertedIndex::kVersionLatest;
      const Status saved = f->selector->SaveIndex(path, version);
      Result<SimilaritySelector> loaded =
          saved.ok() ? SimilaritySelector::BuildWithSavedIndex(w.records, path,
                                                               build)
                     : Result<SimilaritySelector>(saved);
      std::remove(path.c_str());
      if (!loaded.ok()) {
        *error = "image round trip: " + loaded.status().ToString();
        return nullptr;
      }
      f->selector = std::make_unique<SimilaritySelector>(std::move(*loaded));
    } else if (f->selector->num_segments() > 1 &&
               f->selector->SaveIndex(path).code() !=
                   StatusCode::kInvalidArgument) {
      std::remove(path.c_str());
      *error = "SaveIndex over K > 1 segments is not InvalidArgument";
      return nullptr;
    }
  }
  if (c.door == Door::kDynamic || c.door == Door::kDelta ||
      c.door == Door::kRebuilt) {
    f->dynamic = std::make_unique<DynamicSelector>(w.records, build);
    if (c.door != Door::kDynamic) {
      for (const std::string& text : w.inserts) f->dynamic->AddRecord(text);
    }
    if (c.door == Door::kRebuilt) {
      f->dynamic->Rebuild();
      std::vector<std::string> all = w.records;
      all.insert(all.end(), w.inserts.begin(), w.inserts.end());
      num_records = all.size();
      f->fresh = std::make_unique<SimilaritySelector>(
          SimilaritySelector::Build(all, w.build));
    }
  }
  if (c.door == Door::kServing) {
    serve::DynamicServingOptions options;
    options.build = build;
    options.cache_bytes = 1 << 20;
    for (auto* serving : {&f->serving, &f->patching}) {
      *serving = std::make_unique<serve::DynamicServing>(w.records, options);
      for (const std::string& text : w.inserts) (*serving)->AddRecord(text);
    }
  }
  if (f->num_segments() !=
      std::min(c.segments, std::max<size_t>(1, num_records))) {
    *error = "built " + std::to_string(f->num_segments()) + " segments";
    return nullptr;
  }
  if (c.storage == Storage::kCallerStore) {
    const InvertedIndex& index =
        f->selector  ? f->selector->index()
        : f->sharded ? f->sharded->shard_index(0)
                     : f->Dynamic()->snapshot().main().index();
    f->store = std::make_unique<PostingStore>(PostingStore::Build(index));
  }
  return f;
}

// --- The references. ---

/// The reference answer, with len(s) of every match.
struct Expected {
  std::vector<Match> matches;
  std::vector<float> lens;
};

/// Scores every delta record of `snap` by brute force with the frozen
/// statistics of `frozen`: its distinct known tokens in ascending TokenId
/// order, idf² summed in that order plus default_idf² per unknown token,
/// then IdfMeasure::ScoreTokens. Public calls only.
void AppendDeltaMatches(const SimilaritySelector& frozen,
                        const DynamicSelector::Snapshot& snap,
                        const PreparedQuery& q, double clamped_tau,
                        Expected* out) {
  const IdfMeasure& measure = frozen.measure();
  for (SetId id = static_cast<SetId>(frozen.collection().size());
       id < snap.size(); ++id) {
    std::vector<TokenId> tokens;
    size_t unknown = 0;
    for (const TokenCount& tc :
         frozen.tokenizer().TokenizeCounted(snap.text(id))) {
      const std::optional<TokenId> t =
          frozen.collection().dictionary().Find(tc.token);
      if (t.has_value()) {
        tokens.push_back(*t);
      } else {
        ++unknown;
      }
    }
    std::sort(tokens.begin(), tokens.end());
    double len_sq = 0.0;
    for (TokenId t : tokens) len_sq += measure.idf(t) * measure.idf(t);
    for (size_t i = 0; i < unknown; ++i) {
      len_sq += measure.default_idf() * measure.default_idf();
    }
    const float len = static_cast<float>(std::sqrt(len_sq));
    const double score =
        measure.ScoreTokens(q, tokens.data(), tokens.size(), len);
    if (score >= clamped_tau) {
      out->matches.push_back({id, score});
      out->lens.push_back(len);
    }
  }
}

// --- The oracle. ---

class Oracle {
 public:
  Oracle() : pool_(3) {}

  /// Checks every algorithm on every query of `w` under every sweep and
  /// seeded configuration. Reports the first failure on one line and
  /// returns false.
  bool RunWorld(const World& w, bool soak) {
    std::vector<Config> configs = SweepConfigs();
    std::mt19937_64 rng(w.seed);
    for (int i = 0; i < (soak ? 24 : 3); ++i) {
      configs.push_back(RandomConfig(&rng, soak));
    }
    for (const Config& c : configs) {
      for (AlgorithmKind kind : kAllKinds) {
        uint64_t list_reads = 0, pool_traffic = 0;
        for (const Query& query : w.queries) {
          const std::string why = Check(w, c, kind, query, &list_reads,
                                        &pool_traffic);
          if (why.empty()) continue;
          ADD_FAILURE() << Line(w, c, kind, query, why);
          if (soak) {
            std::printf("oracle: smallest failing axes: %s\n",
                        ChangedAxes(Minimize(w, c, kind, query)).c_str());
          }
          return false;
        }
        // A pool sees the traffic of every list read through a segment
        // store, whichever kernel reads it; the delta's postings stay in
        // memory.
        if (c.door != Door::kDelta && list_reads > 0 &&
            (pool_traffic > 0) != (c.storage == Storage::kDiskPool)) {
          ADD_FAILURE() << "oracle: world=" << w.shape << " seed=" << w.seed
                        << " " << Describe(c) << " "
                        << AlgorithmKindName(kind) << ": pool traffic "
                        << pool_traffic << " over " << list_reads
                        << " list reads";
          return false;
        }
      }
    }
    fronts_.clear();
    expected_.clear();
    return true;
  }

  uint64_t trips() const { return trips_; }

 private:
  using FrontKey = std::tuple<Storage, size_t, Door, Image, bool>;

  Front* FrontFor(const World& w, const Config& c, std::string* error) {
    const FrontKey key{c.storage, c.segments, c.door, c.image, c.sketches};
    auto it = fronts_.find(key);
    if (it == fronts_.end()) {
      std::unique_ptr<Front> f = BuildFront(w, c, error);
      if (f == nullptr) return nullptr;
      it = fronts_.emplace(key, std::move(f)).first;
    }
    return it->second.get();
  }

  static double TauFor(const World& w, const Config& c, const Query& query) {
    if (query.tau.has_value()) return *query.tau;
    if (c.tau != kSeededTau) return kTaus[c.tau];
    const uint64_t h = Fnv1a64(query.text.data(), query.text.size(), w.seed);
    return 0.35 + 0.6 * static_cast<double>(h % 100) / 100.0;
  }

  static PreparedQuery Prepare(const SimilaritySelector& stats,
                               const Query& query) {
    PreparedQuery q = stats.Prepare(query.text);
    if (query.one_token && !q.tokens.empty()) {
      PreparedQuery one;
      one.tokens = {q.tokens[0]};
      one.tfs = {q.tfs[0]};
      one.weights = {q.weights[0]};
      one.length = std::sqrt(q.weights[0]);
      one.multiset_size = 1;
      return one;
    }
    return q;
  }

  SelectOptions Options(const World& w, const Front& f, const Config& c,
                        const Query& query) const {
    SelectOptions o;
    o.length_bounding = (c.ablation & kNoLengthBound) == 0;
    o.use_skip_index = (c.ablation & kNoSkipIndex) == 0;
    o.order_preservation = (c.ablation & kNoOrder) == 0;
    o.magnitude_bound = (c.ablation & kNoMagnitude) == 0;
    o.f_cutoff = (c.ablation & kNoFCutoff) == 0;
    o.lazy_candidate_scan = (c.ablation & kEagerScan) == 0;
    o.prefilter = c.prefilter;
    o.posting_store = f.store.get();
    switch (c.control) {
      case Control::kNone:
        break;
      case Control::kBudgetOne:
        o.control.max_elements_read = 1;
        break;
      case Control::kBudgetSeeded:
        o.control.max_elements_read =
            1 + Fnv1a64(query.text.data(), query.text.size(), w.seed) % 200;
        break;
      case Control::kCancel:
        o.control.cancel = &cancelled_;
        break;
      case Control::kDeadline:
        o.control.deadline =
            QueryControl::Clock::now() - std::chrono::milliseconds(1);
        break;
    }
    return o;
  }

  const Expected& ExpectedFor(const World& w, const Front& f,
                              const Query& query, const PreparedQuery& q,
                              double tau) {
    const auto key =
        std::make_tuple(&f, &query, std::bit_cast<uint64_t>(tau));
    auto it = expected_.find(key);
    if (it != expected_.end()) return it->second;
    const SimilaritySelector& stats = f.fresh ? *f.fresh : *w.reference;
    Expected e;
    e.matches =
        LinearScanSelect(stats.measure(), stats.collection(), q, tau).matches;
    for (const Match& m : e.matches) {
      e.lens.push_back(stats.measure().set_length(m.id));
    }
    if (f.Dynamic() != nullptr && f.fresh == nullptr) {
      AppendDeltaMatches(stats, f.Dynamic()->snapshot(), q,
                         internal::ClampTau(tau), &e);
    }
    return expected_.emplace(key, std::move(e)).first->second;
  }

  /// Runs one case and returns why it fails, or "".
  std::string Check(const World& w, const Config& c, AlgorithmKind kind,
                    const Query& query, uint64_t* list_reads,
                    uint64_t* pool_traffic) {
    std::string error;
    Front* f = FrontFor(w, c, &error);
    if (f == nullptr) return error;
    const SimilaritySelector& stats = f->fresh ? *f->fresh : *w.reference;
    const PreparedQuery q = Prepare(stats, query);
    const double tau = TauFor(w, c, query);
    const double clamped = internal::ClampTau(tau);
    const Expected& expected = ExpectedFor(w, *f, query, q, tau);
    // Theorem 1: every match lies in the length window.
    const internal::LengthWindow window =
        internal::ComputeLengthWindow(q, clamped, true);
    for (size_t i = 0; i < expected.matches.size(); ++i) {
      if (!window.Contains(expected.lens[i])) {
        return "Theorem 1: len(s) of id " +
               std::to_string(expected.matches[i].id) + " is outside [" +
               std::to_string(window.lo) + ", " + std::to_string(window.hi) +
               "]";
      }
    }

    f->SetPool(c.pool ? &pool_ : nullptr);
    const SelectOptions options = Options(w, *f, c, query);
    serve::ResultCache* cache = f->Cache(query);
    const bool limited = c.control != Control::kNone;
    if (cache != nullptr && limited) {
      // Fill the entry first: a limited query must still run on its own.
      SelectOptions unlimited = options;
      unlimited.control = QueryControl();
      f->Select(query, q, tau, kind, unlimited);
    }
    auto traffic_of = [](const serve::ResultCache* rc) {
      return rc->hits() + rc->misses() + rc->insertions();
    };
    const uint64_t cache_traffic = cache ? traffic_of(cache) : 0;
    const QueryResult r = f->Select(query, q, tau, kind, options);
    if (cache != nullptr && limited && traffic_of(cache) != cache_traffic) {
      return "a limited query went through the result cache";
    }
    if (!r.status.ok()) return "status " + r.status.ToString();
    if (r.counters.results != r.matches.size()) {
      return "counters.results " + std::to_string(r.counters.results) +
             " for " + std::to_string(r.matches.size()) + " matches";
    }
    for (const Match& m : r.matches) {
      if (!(m.score >= clamped)) {
        return "id " + std::to_string(m.id) + " scores below the clamped tau";
      }
    }
    if (r.complete()) {
      const std::string diff = MatchDifference(expected.matches, r.matches);
      if (!diff.empty()) return "differs from the reference: " + diff;
    } else {
      ++trips_;
      const Termination trip =
          c.control == Control::kCancel     ? Termination::kCancelled
          : c.control == Control::kDeadline ? Termination::kDeadline
          : c.control == Control::kNone     ? Termination::kCompleted
                                            : Termination::kBudget;
      if (r.termination != trip) {
        return std::string("termination ") + TerminationName(r.termination);
      }
      QueryResult full;
      full.matches = expected.matches;
      const std::string diff = PartialDifference(full, r);
      if (!diff.empty()) return "unsound partial answer: " + diff;
    }
    if ((c.control == Control::kCancel || c.control == Control::kDeadline) &&
        r.complete() && !expected.matches.empty()) {
      return "a preset trip answered in full";
    }
    if (cache != nullptr && limited && !c.pool) {
      // Its own partial and counters: those of the same query uncached.
      QueryResult own;
      if (f->serving) {
        own = f->serving->selector().Select(query.text, tau, kind, options);
      } else {
        Config twin = c;
        twin.door = Door::kSelector;
        Front* tf = FrontFor(w, twin, &error);
        if (tf == nullptr) return error;
        tf->SetPool(nullptr);
        own = tf->Select(query, q, tau, kind, Options(w, *tf, twin, query));
      }
      if (own.termination != r.termination ||
          !MatchDifference(own.matches, r.matches).empty() ||
          own.counters.elements_read != r.counters.elements_read ||
          own.counters.rows_scanned != r.counters.rows_scanned) {
        return std::string("a limited query on a cached door ended ") +
               TerminationName(r.termination) + " with " +
               r.counters.ToString() + ", uncached " +
               TerminationName(own.termination) + " with " +
               own.counters.ToString();
      }
    }
    if (ConsumesLists(kind)) {
      if (r.counters.elements_read + r.counters.elements_skipped !=
          r.counters.elements_total) {
        return "read + skipped != total: " + r.counters.ToString();
      }
      *list_reads += r.counters.elements_read;
    }
    const uint64_t traffic = r.counters.pool_hits + r.counters.pool_misses;
    *pool_traffic += traffic;
    if (traffic > 0 && c.storage != Storage::kDiskPool) {
      return "pool traffic without a pool";
    }
    if (q.tokens.empty() && r.counters.elements_read != 0) {
      return "a query without a known token read postings";
    }
    // The same configuration in memory, or built instead of reloaded, reads
    // and skips exactly as much (a v2/v3 image carries no sketches, so the
    // tier may answer on one side only). Only complete answers compare
    // when a trip on a pooled fan-out cancels its siblings at a racy point.
    auto same_work = [&](const Config& twin) -> std::string {
      Front* tf = FrontFor(w, twin, &error);
      if (tf == nullptr) return error;
      tf->SetPool(c.pool ? &pool_ : nullptr);
      const QueryResult t =
          tf->Select(query, q, tau, kind, Options(w, *tf, twin, query));
      if ((c.pool && !(t.complete() && r.complete())) ||
          (t.counters.elements_read == r.counters.elements_read &&
           t.counters.elements_skipped == r.counters.elements_skipped)) {
        return "";
      }
      return "read/skipped " + std::to_string(r.counters.elements_read) + "/" +
             std::to_string(r.counters.elements_skipped) + " vs " +
             std::to_string(t.counters.elements_read) + "/" +
             std::to_string(t.counters.elements_skipped) + " under " +
             ChangedAxes(twin);
    };
    if (c.storage != Storage::kMemory) {
      Config twin = c;
      twin.storage = Storage::kMemory;
      if (std::string why = same_work(twin); !why.empty()) return why;
    }
    if (c.image != Image::kBuilt && !(c.sketches && c.prefilter)) {
      Config twin = c;
      twin.image = Image::kBuilt;
      if (std::string why = same_work(twin); !why.empty()) return why;
    }
    if (kind == AlgorithmKind::kHybrid && c.ablation == 0 && r.complete()) {
      const QueryResult inra =
          f->Select(query, q, tau, AlgorithmKind::kInra, options);
      if (inra.complete() &&
          r.counters.elements_read > inra.counters.elements_read) {
        return "Hybrid read " + std::to_string(r.counters.elements_read) +
               " elements, iNRA " + std::to_string(inra.counters.elements_read);
      }
    }
    if (cache != nullptr && r.complete() && !limited) {
      const uint64_t before = cache->hits();
      const QueryResult again = f->Select(query, q, tau, kind, options);
      if (cache->hits() != before + 1) {
        return "a repeated query missed the cache";
      }
      if (!MatchDifference(r.matches, again.matches).empty() ||
          again.counters.ToString() != r.counters.ToString() ||
          again.termination != r.termination) {
        return "a cache hit differs from the answer it cached";
      }
    }
    if (f->patching != nullptr && !query.one_token && !limited) {
      // Fill (or re-stamp) the entry, insert the query's own text, and ask
      // again: a hit patched over the new record, equal to the uncached
      // snapshot answer in ids, score bits and reads.
      serve::DynamicServing& p = *f->patching;
      const serve::ResultCache& pc = *p.result_cache();
      p.Select(query.text, tau, kind, options);
      p.AddRecord(query.text);
      const uint64_t hits = pc.hits(), patches = pc.patches();
      const QueryResult patched = p.Select(query.text, tau, kind, options);
      if (pc.hits() != hits + 1 || pc.patches() != patches + 1) {
        return "an insert between repeated queries did not patch the hit";
      }
      const QueryResult uncached =
          p.selector().Select(query.text, tau, kind, options);
      if (patched.snapshot_version != uncached.snapshot_version) {
        return "a patched hit at version " +
               std::to_string(patched.snapshot_version) + ", uncached at " +
               std::to_string(uncached.snapshot_version);
      }
      const std::string diff =
          MatchDifference(uncached.matches, patched.matches);
      if (!diff.empty()) {
        return "a patched hit differs from the uncached answer: " + diff;
      }
      if (patched.counters.elements_read != uncached.counters.elements_read ||
          patched.counters.rows_scanned != uncached.counters.rows_scanned ||
          patched.counters.results != uncached.counters.results) {
        return "a patched hit's counters " + patched.counters.ToString() +
               ", uncached " + uncached.counters.ToString();
      }
    }
    return "";
  }

  std::string Line(const World& w, const Config& c, AlgorithmKind kind,
                   const Query& query, const std::string& why) const {
    std::ostringstream out;
    out << "oracle: world=" << w.shape << " seed=" << w.seed
        << " kind=" << AlgorithmKindName(kind) << " " << Describe(c)
        << " query=" << query.name << " \"" << query.text
        << "\" tau=" << TauFor(w, c, query) << ": " << why;
    return out.str();
  }

  /// Resets each axis to its default in turn, keeping every reset under
  /// which the case still fails.
  Config Minimize(const World& w, Config c, AlgorithmKind kind,
                  const Query& query) {
    const Config d;
    const std::vector<void (*)(Config*, const Config&)> resets = {
        [](Config* t, const Config& d) { t->tau = d.tau; },
        [](Config* t, const Config& d) { t->ablation = d.ablation; },
        [](Config* t, const Config& d) { t->storage = d.storage; },
        [](Config* t, const Config& d) { t->segments = d.segments; },
        [](Config* t, const Config& d) { t->pool = d.pool; },
        [](Config* t, const Config& d) { t->door = d.door; },
        [](Config* t, const Config& d) { t->image = d.image; },
        [](Config* t, const Config& d) { t->sketches = d.sketches; },
        [](Config* t, const Config& d) { t->prefilter = d.prefilter; },
        [](Config* t, const Config& d) { t->control = d.control; }};
    for (auto reset : resets) {
      Config t = c;
      reset(&t, d);
      t = Normalize(t);
      if (Describe(t) == Describe(c)) continue;
      uint64_t reads = 0, traffic = 0;
      if (!Check(w, t, kind, query, &reads, &traffic).empty()) c = t;
    }
    return c;
  }

  ThreadPool pool_;
  const std::atomic<bool> cancelled_{true};
  std::map<FrontKey, std::unique_ptr<Front>> fronts_;
  std::map<std::tuple<const Front*, const Query*, uint64_t>, Expected>
      expected_;
  uint64_t trips_ = 0;
};

TEST(OracleTest, EveryConfigurationMatchesTheReference) {
  const bool soak = Soak();
  Oracle oracle;
  for (size_t i = 0; i < NumWorlds(soak); ++i) {
    const World w = MakeWorldAt(i, soak);
    if (!oracle.RunWorld(w, soak)) return;  // stop at the first failing world
  }
  EXPECT_GT(oracle.trips(), 0u);
}

}  // namespace
}  // namespace simsel
