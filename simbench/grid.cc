// grid-mem and grid-disk: the paper's query grid (gram bucket x tau x
// algorithm, Figs. 6-9) through SimilaritySelector held in memory and
// through a disk-mode ShardedSelector. Both run the same seeded query mix in
// a closed loop with one client; every answer is checked for exactness.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/internal.h"
#include "core/selector.h"
#include "gen/workload.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "serve/sharded_selector.h"
#include "simd/kernels.h"
#include "sketch/prefilter.h"
#include "storage/block_codec.h"
#include "storage/posting_store.h"
#include "workloads.h"

namespace simbench {
namespace {

using simsel::AlgorithmKind;
using simsel::Match;
using simsel::PreparedQuery;
using simsel::QueryResult;

constexpr size_t kGridWords = 100000;
/// Queries per (gram bucket, edit count) slot. Each query runs at one tau,
/// the slot's queries dealt evenly over the taus, and with every
/// algorithm. A query at every tau would make a quarter as many distinct
/// queries for the same work, and the grid's p99 would then rest on a few
/// heavy queries of the seed.
constexpr size_t kQueriesPerSlot = 192;
constexpr int kMaxEdits = 2;
constexpr double kTaus[] = {0.6, 0.7, 0.8, 0.9};
constexpr size_t kNumTaus = std::size(kTaus);

struct BucketDef {
  const char* label;
  int min_tokens;
  int max_tokens;
};
constexpr BucketDef kBuckets[] = {
    {"1-5", 1, 5}, {"6-10", 6, 10}, {"11-15", 11, 15}, {"16-20", 16, 20}};
constexpr size_t kNumBuckets = std::size(kBuckets);

struct AlgoDef {
  AlgorithmKind kind;
  const char* label;
  const char* select_metric;
};
constexpr AlgoDef kAlgos[] = {
    {AlgorithmKind::kSf, "SF", "core.select_us.SF"},
    {AlgorithmKind::kInra, "iNRA", "core.select_us.iNRA"},
    {AlgorithmKind::kHybrid, "Hybrid", "core.select_us.Hybrid"},
    {AlgorithmKind::kIta, "iTA", "core.select_us.iTA"},
    {AlgorithmKind::kSortById, "sort-by-id", "core.select_us.sort-by-id"},
};
constexpr size_t kNumAlgos = std::size(kAlgos);
constexpr size_t kNumCells = kNumBuckets * kNumTaus * kNumAlgos;

/// Every kScanStride-th (query, tau) group is also checked against the
/// linear scan.
constexpr uint32_t kScanStride = 16;

/// grid-disk layout: shard 0 inline plus a pool for the other three.
constexpr size_t kNumShards = 4;
constexpr size_t kScatterWorkers = 3;
/// BufferPool frames = unsharded store pages / kPoolDivisor, so the pools
/// hold well under the stores' pages.
constexpr size_t kPoolDivisor = 8;

/// An untraced run makes at least this many passes over the grid, so each
/// op's best run is taken over several.
constexpr size_t kMinPasses = 3;

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// A query text at its tau: one (query, tau) group of the grid.
struct GridQuery {
  std::string text;
  size_t bucket = 0;
  size_t tau = 0;  // index into kTaus
};

/// One timed operation: (query, tau) group and algorithm.
struct Cell {
  uint32_t group;  // index into Grid::queries
  uint32_t algo;
};

struct Grid {
  std::vector<GridQuery> queries;
  std::vector<Cell> cells;  // shuffled; the loop cycles through it

  const GridQuery& query(uint32_t group) const { return queries[group]; }
  double tau(uint32_t group) const { return kTaus[queries[group].tau]; }
  /// Index of the per-cell table row (bucket x tau x algorithm).
  size_t cell_index(const Cell& c) const {
    const GridQuery& q = queries[c.group];
    return (q.bucket * kNumTaus + q.tau) * kNumAlgos + c.algo;
  }
};

Grid MakeGrid(const std::vector<std::string>& words,
              const simsel::Tokenizer& tokenizer, uint64_t seed) {
  Grid grid;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    for (int edits = 0; edits <= kMaxEdits; ++edits) {
      simsel::WorkloadOptions wo;
      wo.num_queries = kQueriesPerSlot;
      wo.min_tokens = kBuckets[b].min_tokens;
      wo.max_tokens = kBuckets[b].max_tokens;
      wo.modifications = edits;
      wo.seed = seed * 7919 + b * 16 + static_cast<uint64_t>(edits) + 1;
      simsel::Workload wl = simsel::GenerateWordWorkload(words, tokenizer, wo);
      for (size_t k = 0; k < wl.queries.size(); ++k) {
        grid.queries.push_back(
            GridQuery{std::move(wl.queries[k]), b, k % kNumTaus});
      }
    }
  }
  const uint32_t groups = static_cast<uint32_t>(grid.queries.size());
  for (uint32_t g = 0; g < groups; ++g) {
    for (uint32_t a = 0; a < kNumAlgos; ++a) grid.cells.push_back({g, a});
  }
  simsel::Rng rng(seed ^ 0x5DEECE66Dull);
  rng.Shuffle(grid.cells.size(),
              [&](size_t i, size_t j) { std::swap(grid.cells[i], grid.cells[j]); });
  return grid;
}

/// Checks answers against a per-group reference. The reference is either
/// supplied (grid-disk: the in-memory answer) or the first answer seen
/// (grid-mem), so every later algorithm and pass must match it byte for
/// byte; a deterministic sample of groups also checks the reference
/// against the linear scan.
class Oracle {
 public:
  using AnswerFn = std::function<std::vector<Match>(uint32_t group)>;

  Oracle(const Grid& grid, AnswerFn reference, AnswerFn scan)
      : grid_(grid),
        reference_(std::move(reference)),
        scan_(std::move(scan)),
        refs_(grid.queries.size()) {}

  /// True when `r` is a complete answer equal to the reference.
  bool Check(const Cell& c, const QueryResult& r, Report* report) {
    if (!r.complete()) {
      report->Violation(std::string(kAlgos[c.algo].label) +
                        " returned an incomplete answer: " +
                        r.status.ToString());
      return false;
    }
    Ref& ref = refs_[c.group];
    if (!ref.set) {
      ref.matches = reference_ ? reference_(c.group) : r.matches;
      ref.set = true;
      if (c.group % kScanStride == 0) {
        ++scan_checks_;
        std::string diff = DiffMatches(scan_(c.group), ref.matches);
        if (!diff.empty()) {
          report->Violation("linear scan disagrees on \"" +
                            grid_.query(c.group).text + "\": " + diff);
          return false;
        }
      }
    }
    std::string diff = DiffMatches(ref.matches, r.matches);
    if (!diff.empty()) {
      report->Violation(std::string(kAlgos[c.algo].label) + " on \"" +
                        grid_.query(c.group).text + "\" tau " +
                        Num(grid_.tau(c.group)) + ": " + diff);
      return false;
    }
    return true;
  }

  uint64_t scan_checks() const { return scan_checks_; }

 private:
  struct Ref {
    bool set = false;
    std::vector<Match> matches;
  };
  const Grid& grid_;
  AnswerFn reference_;
  AnswerFn scan_;
  std::vector<Ref> refs_;
  uint64_t scan_checks_ = 0;
};

/// Result of one timed closed loop: every sample, in whole passes over the
/// grid. Sample i is op i % ops of pass i / ops, where op j is grid.cells[j].
struct LoopStats {
  std::vector<double> latency_us;
  size_t passes = 0;
  /// Elements read by each op (deterministic, so taken from the first pass).
  std::vector<uint64_t> elements_read;

  /// Appends a later loop's passes.
  void Absorb(const LoopStats& later) {
    latency_us.insert(latency_us.end(), later.latency_us.begin(),
                      later.latency_us.end());
    passes += later.passes;
    if (elements_read.empty()) elements_read = later.elements_read;
  }
};

/// Runs cells back to back (one client, closed loop) in whole passes over
/// the grid until `seconds` of wall time are spent and at least
/// `min_passes` passes ran. `select` runs one cell through the front door;
/// only that call is timed.
template <typename SelectFn>
LoopStats UntracedLoop(const Grid& grid, double seconds, size_t min_passes,
                       SelectFn&& select, Oracle* oracle, Report* report) {
  LoopStats out;
  const size_t ops = grid.cells.size();
  out.elements_read.resize(ops);
  const Clock::time_point end = Deadline(seconds);
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % ops == 0) {
      ++out.passes;
      if (out.passes >= min_passes && Clock::now() >= end) break;
    }
    const Cell& c = grid.cells[i % ops];
    const Clock::time_point t0 = Clock::now();
    QueryResult r = select(c);
    out.latency_us.push_back(MicrosBetween(t0, Clock::now()));
    if (i < ops) out.elements_read[i] = r.counters.elements_read;
    report->Attempt(oracle->Check(c, r, report));
  }
  return out;
}

/// The per-cell table over each op's best run: one row per (bucket, tau,
/// algorithm) with its ops' p50, p99 and mean elements read, for the
/// artifact; the p50s are also printed as a Fig. 6-style grid.
void CellTable(const Grid& grid, const LoopStats& loop,
               const std::vector<double>& best, Report* report) {
  std::vector<std::vector<double>> latency(kNumCells);
  std::vector<uint64_t> elements(kNumCells);
  for (size_t j = 0; j < best.size(); ++j) {
    const size_t cell = grid.cell_index(grid.cells[j]);
    latency[cell].push_back(best[j]);
    elements[cell] += loop.elements_read[j];
  }
  std::string out = "[";
  std::string line;
  report->Line("per-cell p50 us (bucket tau: SF iNRA Hybrid iTA sort-by-id)");
  for (size_t i = 0; i < kNumCells; ++i) {
    const size_t algo = i % kNumAlgos;
    const size_t tau = (i / kNumAlgos) % kNumTaus;
    const size_t bucket = i / (kNumAlgos * kNumTaus);
    Summary s = Summarize(latency[i]);
    if (i > 0) out += ",";
    out += JsonObject({
        {"bucket", JsonString(kBuckets[bucket].label)},
        {"tau", Num(kTaus[tau])},
        {"algo", JsonString(kAlgos[algo].label)},
        {"n", std::to_string(s.n)},
        {"p50_us", Num(s.p50)},
        {"p99_us", Num(s.p99)},
        {"p99_supported", s.p99_supported ? "true" : "false"},
        {"elements_read_mean",
         Num(s.n == 0 ? 0.0
                      : static_cast<double>(elements[i]) /
                            static_cast<double>(s.n))},
    });
    char buf[32];
    if (algo == 0) {
      std::snprintf(buf, sizeof(buf), "  %-6s %.1f:", kBuckets[bucket].label,
                    kTaus[tau]);
      line = buf;
    }
    std::snprintf(buf, sizeof(buf), " %9.1f", s.p50);
    line += buf;
    if (algo + 1 == kNumAlgos) report->Line(line);
  }
  report->Section("cells", out + "]");
}

/// Every op (query, tau, algorithm) runs once per pass, and its latency is
/// its fastest run. A shared host slows down for seconds at a time; an op
/// timed in several passes is almost never slowed in all of them, while the
/// per-pass figures swing by a third between passes. p50, p99 and
/// throughput are over these per-op latencies, one sample per op.
void SetEndToEnd(const Grid& grid, const LoopStats& loop, Report* report) {
  const std::vector<double> best = BestPerOp(loop.latency_us, grid.cells.size());
  CellTable(grid, loop, best, report);
  const Summary s = Summarize(best);
  if (!s.p99_supported) {
    report->Violation("the grid has fewer than " +
                      std::to_string(MinSamplesFor(0.99)) +
                      " ops; p99 unsupported");
  }
  report->Set("query_p50_us", s.p50);
  report->Set("query_p99_us", s.p99);
  report->Set("queries_per_s", 1e6 / s.mean);
  report->Line("queries: " + std::to_string(loop.latency_us.size()) +
               " samples in " + std::to_string(loop.passes) + " passes of " +
               std::to_string(s.n) + " ops; best run per op: p50 " +
               Num(s.p50) + " us, p99 " + Num(s.p99) + " us, " +
               Num(1e6 / s.mean) + " queries/s");
}

/// Registry counter/histogram deltas around the traced leg.
struct RegistryMark {
  uint64_t engaged, fallthrough, admitted, fp;

  static RegistryMark Now() {
    auto& reg = simsel::obs::MetricsRegistry::Global();
    return {reg.GetCounter("simsel_prefilter_engaged_total")->Value(),
            reg.GetCounter("simsel_prefilter_fallthrough_total")->Value(),
            reg.GetCounter("simsel_prefilter_admitted_total")->Value(),
            reg.GetCounter("simsel_prefilter_fp_total")->Value()};
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SetSketchMetrics(const RegistryMark& before, const RegistryMark& after,
                      double queries, Report* report) {
  const double engaged = static_cast<double>(after.engaged - before.engaged);
  const double fall = static_cast<double>(after.fallthrough - before.fallthrough);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  const double fp = static_cast<double>(after.fp - before.fp);
  report->Set("sketch.engaged_ratio", Ratio(engaged, engaged + fall));
  report->Set("sketch.admitted", Ratio(admitted, queries));
  report->Set("sketch.fp_ratio", Ratio(fp, admitted));
}

/// Sums per-query layer figures over the traced leg; Mean() divides by the
/// number of traced queries.
struct LayerSums {
  double n = 0;
  double tokenize = 0, prepare = 0, select = 0, root_self = 0, e2e = 0;
  std::array<double, kNumAlgos> select_by_algo{};
  std::array<double, kNumAlgos> count_by_algo{};
  double plan = 0, seek = 0, probes = 0, window_postings = 0;
  double elements_read = 0, read_in_window_queries = 0, pruning = 0;
  double cand_inserts = 0, cand_prunes = 0, cand_scan_steps = 0;
  double sketch_attr = 0, index_attr = 0, span_loop = 0;
  // grid-disk only.
  double scatter = 0, merge = 0, shard_mean = 0, shard_max = 0;
  double read_block = 0, seq_pages = 0, rand_pages = 0;
  double pool_hits = 0, pool_misses = 0;
  double decode_ns = 0, decoded_postings = 0;
  double scalar_ns = 0, dispatched_ns = 0;

  double Mean(double sum) const { return n > 0 ? sum / n : 0.0; }
};

/// The Theorem-1 window of each query token on one index, located through
/// the block summaries exactly as the cursors seek. Returns the seek time.
double ReplayWindowSeek(const simsel::InvertedIndex& index,
                        const PreparedQuery& q, double tau,
                        std::vector<simsel::PostingRange>* ranges,
                        double* probes, double* postings) {
  const simsel::internal::LengthWindow w =
      simsel::internal::ComputeLengthWindow(q, tau, /*enabled=*/true);
  ranges->assign(q.tokens.size(), simsel::PostingRange{});
  uint64_t p = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < q.tokens.size(); ++i) {
    (*ranges)[i] = index.WindowSpan(q.tokens[i], w.lo, w.hi, &p);
  }
  const double us = MicrosBetween(t0, Clock::now());
  *probes += static_cast<double>(p);
  for (const simsel::PostingRange& r : *ranges) {
    *postings += static_cast<double>(r.size());
  }
  return us;
}

/// Trace-leg summary shared by both grid workloads. The tracing overhead
/// compares the p50 of each op's best traced run with that of its best
/// untraced run, from passes that alternate.
void SetCommonLayerMetrics(const LayerSums& s, const LoopStats& untraced,
                           const std::vector<double>& traced_e2e, size_t ops,
                           Report* report) {
  report->Set("text.tokenize_us", s.Mean(s.tokenize));
  report->Set("core.prepare_us", s.Mean(s.prepare));
  for (size_t a = 0; a < kNumAlgos; ++a) {
    report->Set(kAlgos[a].select_metric,
                Ratio(s.select_by_algo[a], s.count_by_algo[a]));
  }
  report->Set("core.span_loop_us", s.Mean(s.span_loop));
  report->Set("core.candidate_inserts", s.Mean(s.cand_inserts));
  report->Set("core.candidate_scan_steps", s.Mean(s.cand_scan_steps));
  report->Set("core.candidate_prune_ratio", Ratio(s.cand_prunes, s.cand_inserts));
  report->Set("index.window_seek_us", s.Mean(s.seek));
  report->Set("index.seek_probes", s.Mean(s.probes));
  report->Set("index.window_postings", s.Mean(s.window_postings));
  report->Set("index.elements_read", s.Mean(s.elements_read));
  report->Set("index.pruning_power", s.Mean(s.pruning));
  report->Set("index.read_over_window",
              Ratio(s.read_in_window_queries, s.window_postings));
  report->Set("sketch.plan_us", s.Mean(s.plan));
  const double e2e = s.Mean(s.e2e);
  const double remainder = s.Mean(s.root_self);
  report->Set("trace.e2e_us", e2e);
  report->Set("trace.layer_sum_us", e2e - remainder);
  report->Set("trace.remainder_us", remainder);
  const double traced_p50 = Summarize(BestPerOp(traced_e2e, ops)).p50;
  const double untraced_p50 =
      Summarize(BestPerOp(untraced.latency_us, ops)).p50;
  report->Set("trace.overhead_us", traced_p50 - untraced_p50);
  report->Line("tracing overhead: traced p50 " + Num(traced_p50) +
               " us - untraced p50 " + Num(untraced_p50) + " us");
}

/// Renders the layer table: each layer's mean self time per query and the
/// sum against end to end.
std::string LayerTable(const std::vector<std::pair<std::string, double>>& rows,
                       double e2e, double remainder, Report* report) {
  std::string out = "[";
  double sum = 0.0;
  report->Line("layer self time per query (us):");
  for (size_t i = 0; i < rows.size(); ++i) {
    sum += rows[i].second;
    if (i > 0) out += ",";
    out += JsonObject({{"layer", JsonString(rows[i].first)},
                       {"self_us", Num(rows[i].second)}});
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-22s %10.3f", rows[i].first.c_str(),
                  rows[i].second);
    report->Line(buf);
  }
  out += "]";
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  sum of layers %.3f us vs end to end %.3f us; unexplained "
                "remainder %.3f us",
                sum, e2e, remainder);
  report->Line(buf);
  return JsonObject({{"layers", out},
                     {"layer_sum_us", Num(sum)},
                     {"e2e_us", Num(e2e)},
                     {"remainder_us", Num(remainder)}});
}

uint64_t IndexBytes(const simsel::InvertedIndex& index) {
  return index.ListBytesTotal() + index.SkipBytes() + index.HashBytes() +
         index.SketchBytes();
}

}  // namespace

void RunGridMem(Report* report) {
  const RunConfig& cfg = report->config();
  const std::vector<std::string> words = MakeWords(kGridWords);
  const uint64_t input_bytes = InputBytes(words);

  std::vector<double> reps;
  std::unique_ptr<simsel::SimilaritySelector> sel;
  for (int r = 0; r < kSetupReps; ++r) {
    sel.reset();
    const Clock::time_point t0 = Clock::now();
    sel = std::make_unique<simsel::SimilaritySelector>(
        simsel::SimilaritySelector::Build(words));
    reps.push_back(SecondsSince(t0));
  }
  SetSetup(reps, report);
  const simsel::SimilaritySelector& s = *sel;

  const uint64_t mem_bytes = SizeTotal(s.Sizes());
  const uint64_t disk_bytes =
      s.index().EncodedStats(simsel::InvertedIndex::kVersionLatest).file_bytes;
  report->Set("mem_bytes_per_input_byte",
              static_cast<double>(mem_bytes) / static_cast<double>(input_bytes));
  report->Set("disk_bytes_per_input_byte",
              static_cast<double>(disk_bytes) / static_cast<double>(input_bytes));

  const Grid grid = MakeGrid(words, s.tokenizer(), cfg.seed);
  report->Section(
      "sizes",
      JsonObject({{"records", std::to_string(words.size())},
                  {"input_bytes", std::to_string(input_bytes)},
                  {"mem_bytes", std::to_string(mem_bytes)},
                  {"index_image_bytes", std::to_string(disk_bytes)},
                  {"queries", std::to_string(grid.queries.size())},
                  {"cells", std::to_string(grid.cells.size())},
                  {"client_threads", "1"},
                  {"loop", JsonString("closed, 1 client")}}));

  Oracle oracle(grid, nullptr, [&](uint32_t g) {
    return s.Select(grid.query(g).text, grid.tau(g),
                    AlgorithmKind::kLinearScan)
        .matches;
  });
  auto select = [&](const Cell& c) {
    return s.Select(grid.query(c.group).text, grid.tau(c.group),
                    kAlgos[c.algo].kind);
  };

  if (!cfg.trace) {
    SetEndToEnd(grid,
                UntracedLoop(grid, cfg.seconds, kMinPasses, select, &oracle,
                             report),
                report);
  } else {
    LoopStats base;
    SpanLog log;
    LayerSums sums;
    std::vector<double> traced_e2e;
    std::vector<simsel::PostingRange> ranges;
    const RegistryMark before = RegistryMark::Now();
    // Each traced pass follows an untraced one, for the tracing overhead.
    const Clock::time_point end = Deadline(cfg.seconds);
    for (size_t i = 0;; ++i) {
      if (i % grid.cells.size() == 0) {
        if (i > 0 && Clock::now() >= end) break;
        base.Absorb(UntracedLoop(grid, 0.0, 1, select, &oracle, report));
      }
      const Cell& c = grid.cells[i % grid.cells.size()];
      const AlgoDef& algo = kAlgos[c.algo];
      const double tau = grid.tau(c.group);
      const uint64_t req = i;

      const int32_t root = log.Open(req, "query");
      const int32_t tok_span = log.Open(req, "text.tokenize", root);
      std::vector<simsel::TokenCount> tokens =
          s.tokenizer().TokenizeCounted(grid.query(c.group).text);
      log.Close(tok_span);
      const int32_t prep_span = log.Open(req, "core.prepare", root);
      PreparedQuery q = s.measure().PrepareQuery(tokens);
      log.Close(prep_span);
      const int32_t sel_span = log.Open(req, "core.select", root);
      QueryResult r = s.SelectPrepared(q, tau, algo.kind, {});
      log.Close(sel_span);
      log.Close(root);
      report->Attempt(oracle.Check(c, r, report));

      // Attribution replays, outside the query's span.
      const bool eligible = simsel::sketch::PrefilterEligible(algo.kind);
      double plan_us = 0.0;
      bool engaged = false;
      if (eligible && s.prefilter() != nullptr) {
        const Clock::time_point t0 = Clock::now();
        engaged = s.prefilter()->PlanFor(q, tau).engaged;
        plan_us = MicrosBetween(t0, Clock::now());
      }
      const bool windowed = algo.kind != AlgorithmKind::kSortById && !engaged;
      double seek_us = 0.0;
      double window_postings = 0.0;
      if (windowed) {
        seek_us = ReplayWindowSeek(s.index(), q, tau, &ranges, &sums.probes,
                                   &window_postings);
        sums.window_postings += window_postings;
        sums.read_in_window_queries +=
            static_cast<double>(r.counters.elements_read);
      }

      const double select_us = log.DurationMicros(sel_span);
      const double sketch_us = engaged ? select_us : plan_us;
      sums.n += 1;
      sums.e2e += log.DurationMicros(root);
      traced_e2e.push_back(log.DurationMicros(root));
      sums.tokenize += log.DurationMicros(tok_span);
      sums.prepare += log.DurationMicros(prep_span);
      sums.select += select_us;
      sums.select_by_algo[c.algo] += select_us;
      sums.count_by_algo[c.algo] += 1;
      sums.plan += plan_us;
      sums.seek += seek_us;
      sums.sketch_attr += sketch_us;
      sums.index_attr += seek_us;
      sums.span_loop += select_us - seek_us - sketch_us;
      sums.elements_read += static_cast<double>(r.counters.elements_read);
      sums.pruning += r.counters.PruningPower();
      sums.cand_inserts += static_cast<double>(r.counters.candidate_inserts);
      sums.cand_prunes += static_cast<double>(r.counters.candidate_prunes);
      sums.cand_scan_steps +=
          static_cast<double>(r.counters.candidate_scan_steps);
    }
    const RegistryMark after = RegistryMark::Now();

    // Self times: the root's self time is the unexplained remainder.
    const std::vector<int64_t> self = SelfTimes(log.spans());
    for (size_t k = 0; k < log.spans().size(); ++k) {
      if (log.spans()[k].parent < 0) {
        sums.root_self += static_cast<double>(self[k]) / 1000.0;
      }
    }
    SetCommonLayerMetrics(sums, base, traced_e2e, grid.cells.size(), report);
    SetSketchMetrics(before, after,
                     sums.n + static_cast<double>(base.latency_us.size()),
                     report);
    report->Section(
        "layers",
        LayerTable({{"text.tokenize", sums.Mean(sums.tokenize)},
                    {"core.prepare", sums.Mean(sums.prepare)},
                    {"sketch", sums.Mean(sums.sketch_attr)},
                    {"index", sums.Mean(sums.index_attr)},
                    {"core.span_loop", sums.Mean(sums.span_loop)}},
                   sums.Mean(sums.e2e), sums.Mean(sums.root_self), report));
    if (!WriteSpans(log, *report)) report->Line("warning: span dump failed");
  }
  report->Line("linear-scan spot checks: " +
               std::to_string(oracle.scan_checks()));
}

void RunGridDisk(Report* report) {
  const RunConfig& cfg = report->config();
  const std::vector<std::string> words = MakeWords(kGridWords);
  const uint64_t input_bytes = InputBytes(words);

  // The in-memory selector is the oracle (grid-disk answers must equal
  // grid-mem's) and sizes the pools; it is not part of setup_s. It answers
  // with SF's exact kernel and the linear scan only, so it skips the
  // sketches and hashes those never read, which keeps the process small.
  simsel::BuildOptions oracle_build;
  oracle_build.index.build_sketches = false;
  oracle_build.index.build_hash = false;
  const simsel::SimilaritySelector mem =
      simsel::SimilaritySelector::Build(words, oracle_build);
  const size_t unsharded_pages = [&] {
    simsel::PostingStore store = simsel::PostingStore::Build(mem.index());
    return (store.SizeBytes() + store.page_bytes() - 1) / store.page_bytes();
  }();
  const size_t pool_pages = std::max<size_t>(kNumShards, unsharded_pages / kPoolDivisor);

  simsel::serve::ShardedSelectorOptions opts;
  opts.num_shards = kNumShards;
  opts.disk_mode = true;
  opts.pool_pages = pool_pages;
  opts.cache_bytes = 0;

  std::vector<double> reps;
  std::unique_ptr<simsel::serve::ShardedSelector> sharded;
  std::unique_ptr<simsel::ThreadPool> pool;
  for (int r = 0; r < kSetupReps; ++r) {
    sharded.reset();
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    sharded = std::make_unique<simsel::serve::ShardedSelector>(
        simsel::serve::ShardedSelector::Build(words, opts));
    pool = std::make_unique<simsel::ThreadPool>(kScatterWorkers);
    sharded->set_thread_pool(pool.get());
    reps.push_back(SecondsSince(t0));
  }
  SetSetup(reps, report);
  const simsel::serve::ShardedSelector& sh = *sharded;

  // Replicas of each shard's store and prefilter, built from the public
  // shard indexes (both are deterministic functions of the index), for the
  // size record and the traced run's storage / sketch replays. An untraced
  // run drops each replica as soon as it is measured.
  std::vector<simsel::PostingStore> stores;
  std::vector<std::unique_ptr<simsel::sketch::Prefilter>> prefilters;
  uint64_t store_bytes = 0, store_pages = 0;
  uint64_t mem_bytes = sh.collection().BaseTableBytes();
  size_t max_list = 0;
  for (size_t i = 0; i < sh.num_shards(); ++i) {
    const simsel::InvertedIndex& idx = sh.shard_index(i);
    simsel::PostingStore store = simsel::PostingStore::Build(idx);
    auto prefilter = simsel::sketch::AttachPrefilter(sh.measure(), idx);
    store_bytes += store.SizeBytes();
    store_pages += (store.SizeBytes() + store.page_bytes() - 1) / store.page_bytes();
    mem_bytes += IndexBytes(idx);
    if (prefilter != nullptr) mem_bytes += prefilter->DerivedBytes();
    for (simsel::TokenId t = 0; t < idx.num_tokens(); ++t) {
      max_list = std::max(max_list, idx.ListSize(t));
    }
    if (cfg.trace) {
      stores.push_back(std::move(store));
      prefilters.push_back(std::move(prefilter));
    }
  }
  report->Set("mem_bytes_per_input_byte",
              static_cast<double>(mem_bytes) / static_cast<double>(input_bytes));
  report->Set("disk_bytes_per_input_byte",
              static_cast<double>(store_bytes) / static_cast<double>(input_bytes));

  const Grid grid = MakeGrid(words, sh.tokenizer(), cfg.seed);
  const size_t frames_per_shard = std::max<size_t>(1, pool_pages / kNumShards);
  report->Section(
      "sizes",
      JsonObject({{"records", std::to_string(words.size())},
                  {"input_bytes", std::to_string(input_bytes)},
                  {"mem_bytes", std::to_string(mem_bytes)},
                  {"store_bytes", std::to_string(store_bytes)},
                  {"store_pages", std::to_string(store_pages)},
                  {"pool_frames_total", std::to_string(frames_per_shard * kNumShards)},
                  {"pool_frames_per_shard", std::to_string(frames_per_shard)},
                  {"shards", std::to_string(kNumShards)},
                  {"scatter_workers", std::to_string(kScatterWorkers)},
                  {"queries", std::to_string(grid.queries.size())},
                  {"cells", std::to_string(grid.cells.size())},
                  {"client_threads", "1"},
                  {"loop", JsonString("closed, 1 client")}}));
  report->Line("store pages " + std::to_string(store_pages) +
               " vs buffer-pool frames " +
               std::to_string(frames_per_shard * kNumShards));

  Oracle oracle(
      grid,
      [&](uint32_t g) {
        return mem.Select(grid.query(g).text, grid.tau(g), AlgorithmKind::kSf)
            .matches;
      },
      [&](uint32_t g) {
        return mem.Select(grid.query(g).text, grid.tau(g),
                          AlgorithmKind::kLinearScan)
            .matches;
      });
  auto select = [&](const Cell& c) {
    return sh.Select(grid.query(c.group).text, grid.tau(c.group),
                     kAlgos[c.algo].kind);
  };

  if (!cfg.trace) {
    SetEndToEnd(grid,
                UntracedLoop(grid, cfg.seconds, kMinPasses, select, &oracle,
                             report),
                report);
  } else {
    LoopStats base;
    auto& reg = simsel::obs::MetricsRegistry::Global();
    using simsel::obs::LabelPair;
    simsel::obs::Histogram* scatter_h = reg.GetHistogram(
        "simsel_serve_stage_latency_usec", LabelPair("stage", "scatter"));
    simsel::obs::Histogram* merge_h = reg.GetHistogram(
        "simsel_serve_stage_latency_usec", LabelPair("stage", "merge"));
    std::vector<simsel::obs::Histogram*> shard_h;
    for (size_t i = 0; i < kNumShards; ++i) {
      shard_h.push_back(reg.GetHistogram("simsel_shard_latency_usec",
                                         LabelPair("shard", std::to_string(i))));
    }

    const simsel::simd::SpanKernels& scalar = simsel::simd::ScalarKernels();
    const simsel::simd::SpanKernels& dispatched = simsel::simd::Kernels();
    SpanLog log;
    LayerSums sums;
    std::vector<double> traced_e2e;
    std::vector<simsel::PostingRange> ranges;
    std::vector<uint32_t> ids(max_list + 1);
    std::vector<float> lens(max_list + 1);
    std::vector<uint8_t> encoded;
    std::vector<std::pair<size_t, size_t>> blocks;  // (offset, bytes)
    std::vector<uint32_t> id_deltas, len_deltas, first_ids, base_bits;
    std::vector<uint32_t> out_ids(1024);
    std::vector<float> out_lens(1024);
    simsel::BlockDecodeScratch scratch;
    const RegistryMark before = RegistryMark::Now();
    // Each traced pass follows an untraced one, for the tracing overhead.
    const Clock::time_point end = Deadline(cfg.seconds);
    for (size_t i = 0;; ++i) {
      if (i % grid.cells.size() == 0) {
        if (i > 0 && Clock::now() >= end) break;
        base.Absorb(UntracedLoop(grid, 0.0, 1, select, &oracle, report));
      }
      const Cell& c = grid.cells[i % grid.cells.size()];
      const AlgoDef& algo = kAlgos[c.algo];
      const double tau = grid.tau(c.group);
      const uint64_t req = i;

      const uint64_t scatter0 = scatter_h->Sum(), merge0 = merge_h->Sum();
      std::array<uint64_t, kNumShards> shard0{};
      for (size_t k = 0; k < kNumShards; ++k) shard0[k] = shard_h[k]->Sum();

      const int32_t root = log.Open(req, "query");
      const int32_t tok_span = log.Open(req, "text.tokenize", root);
      std::vector<simsel::TokenCount> tokens =
          sh.tokenizer().TokenizeCounted(grid.query(c.group).text);
      log.Close(tok_span);
      const int32_t prep_span = log.Open(req, "core.prepare", root);
      PreparedQuery q = sh.measure().PrepareQuery(tokens);
      log.Close(prep_span);
      const int32_t sel_span = log.Open(req, "serve.select", root);
      QueryResult r = sh.SelectPrepared(q, tau, algo.kind, {});
      log.Close(sel_span);
      log.Close(root);
      report->Attempt(oracle.Check(c, r, report));

      const double scatter_us = static_cast<double>(scatter_h->Sum() - scatter0);
      const double merge_us = static_cast<double>(merge_h->Sum() - merge0);
      double shard_sum = 0.0, shard_max = 0.0;
      for (size_t k = 0; k < kNumShards; ++k) {
        const double d = static_cast<double>(shard_h[k]->Sum() - shard0[k]);
        shard_sum += d;
        shard_max = std::max(shard_max, d);
      }

      // Per-shard replays of the layers the shard kernels call.
      const bool eligible = simsel::sketch::PrefilterEligible(algo.kind);
      double plan_us = 0.0, seek_us = 0.0, read_us = 0.0;
      double window_postings = 0.0;
      bool any_windowed = false;
      for (size_t k = 0; k < kNumShards; ++k) {
        bool engaged = false;
        if (eligible && prefilters[k] != nullptr) {
          const Clock::time_point t0 = Clock::now();
          engaged = prefilters[k]->PlanFor(q, tau).engaged;
          plan_us += MicrosBetween(t0, Clock::now());
        }
        if (algo.kind == AlgorithmKind::kSortById || engaged) continue;
        any_windowed = true;
        const simsel::InvertedIndex& idx = sh.shard_index(k);
        seek_us += ReplayWindowSeek(idx, q, tau, &ranges, &sums.probes,
                                    &window_postings);

        // storage: read each window out of the page image.
        const Clock::time_point t0 = Clock::now();
        for (size_t j = 0; j < ranges.size(); ++j) {
          if (ranges[j].empty()) continue;
          simsel::PageReadStats reader;
          simsel::Status st;
          scratch.InvalidateCache();
          stores[k].ReadBlock(q.tokens[j], ranges[j].begin, ranges[j].size(),
                              ids.data(), lens.data(), /*random=*/true,
                              &reader, &st, &scratch);
          if (!st.ok()) report->Violation("replay read failed: " + st.ToString());
        }
        read_us += MicrosBetween(t0, Clock::now());

        // simd: decode the window's compressed blocks, and compare the
        // scalar and dispatched prefix-sum kernels on the same deltas.
        encoded.clear();
        blocks.clear();
        id_deltas.clear();
        len_deltas.clear();
        first_ids.clear();
        base_bits.clear();
        const size_t bp = idx.block_postings();
        for (size_t j = 0; j < ranges.size(); ++j) {
          if (ranges[j].empty()) continue;
          const simsel::TokenId t = q.tokens[j];
          const size_t n = idx.ListSize(t);
          for (size_t b = ranges[j].begin / bp; b * bp < ranges[j].end; ++b) {
            const size_t first = b * bp;
            const size_t cnt = std::min(bp, n - first);
            const size_t off = encoded.size();
            simsel::EncodePostingBlock(idx.LenIds(t) + first,
                                       idx.LenLens(t) + first, cnt, &encoded);
            blocks.push_back({off, encoded.size() - off});
            uint32_t min_bits = ~0u;
            for (size_t p = 0; p < cnt; ++p) {
              uint32_t bits;
              std::memcpy(&bits, idx.LenLens(t) + first + p, sizeof(bits));
              min_bits = std::min(min_bits, bits);
            }
            first_ids.push_back(idx.LenIds(t)[first]);
            base_bits.push_back(min_bits);
            for (size_t p = 0; p < bp; ++p) {
              const size_t at = first + std::min(p, cnt - 1);
              uint32_t bits;
              std::memcpy(&bits, idx.LenLens(t) + at, sizeof(bits));
              id_deltas.push_back(p == 0 || p >= cnt
                                      ? 0u
                                      : idx.LenIds(t)[at] - idx.LenIds(t)[at - 1]);
              len_deltas.push_back(bits - min_bits);
            }
          }
        }
        if (blocks.empty()) continue;
        const Clock::time_point d0 = Clock::now();
        for (const auto& [off, bytes] : blocks) {
          size_t count = 0, consumed = 0;
          if (!simsel::DecodePostingBlock(encoded.data() + off, bytes, bp,
                                          out_ids.data(), out_lens.data(),
                                          &count, &consumed, &scratch)) {
            report->Violation("replay decode failed");
          }
          sums.decoded_postings += static_cast<double>(count);
        }
        sums.decode_ns += MicrosBetween(d0, Clock::now()) * 1000.0;
        for (const simsel::simd::SpanKernels* kern : {&scalar, &dispatched}) {
          const Clock::time_point k0 = Clock::now();
          for (size_t b = 0; b < blocks.size(); ++b) {
            kern->delta_prefix_sum_u32(first_ids[b], id_deltas.data() + b * bp,
                                       bp, out_ids.data());
            kern->bits_add_base_f32(len_deltas.data() + b * bp, bp,
                                    base_bits[b], out_lens.data());
          }
          const double ns = MicrosBetween(k0, Clock::now()) * 1000.0;
          (kern == &scalar ? sums.scalar_ns : sums.dispatched_ns) += ns;
        }
      }
      if (any_windowed) {
        sums.window_postings += window_postings;
        sums.read_in_window_queries +=
            static_cast<double>(r.counters.elements_read);
      }

      const double select_us = log.DurationMicros(sel_span);
      sums.n += 1;
      sums.e2e += log.DurationMicros(root);
      traced_e2e.push_back(log.DurationMicros(root));
      sums.tokenize += log.DurationMicros(tok_span);
      sums.prepare += log.DurationMicros(prep_span);
      sums.select += select_us;
      sums.select_by_algo[c.algo] += select_us;
      sums.count_by_algo[c.algo] += 1;
      sums.plan += plan_us;
      sums.seek += seek_us;
      sums.read_block += read_us;
      sums.scatter += scatter_us;
      sums.merge += merge_us;
      sums.shard_mean += shard_sum / kNumShards;
      sums.shard_max += shard_max;
      sums.span_loop +=
          shard_sum / kNumShards - (plan_us + seek_us + read_us) / kNumShards;
      sums.elements_read += static_cast<double>(r.counters.elements_read);
      sums.pruning += r.counters.PruningPower();
      sums.cand_inserts += static_cast<double>(r.counters.candidate_inserts);
      sums.cand_prunes += static_cast<double>(r.counters.candidate_prunes);
      sums.cand_scan_steps +=
          static_cast<double>(r.counters.candidate_scan_steps);
      sums.seq_pages += static_cast<double>(r.counters.seq_page_reads);
      sums.rand_pages += static_cast<double>(r.counters.rand_page_reads);
      sums.pool_hits += static_cast<double>(r.counters.pool_hits);
      sums.pool_misses += static_cast<double>(r.counters.pool_misses);
    }
    const RegistryMark after = RegistryMark::Now();

    const std::vector<int64_t> self = SelfTimes(log.spans());
    for (size_t k = 0; k < log.spans().size(); ++k) {
      if (log.spans()[k].parent < 0) {
        sums.root_self += static_cast<double>(self[k]) / 1000.0;
      }
    }
    SetCommonLayerMetrics(sums, base, traced_e2e, grid.cells.size(), report);
    SetSketchMetrics(before, after,
                     sums.n + static_cast<double>(base.latency_us.size()),
                     report);
    report->Set("simd.decode_ns_per_posting",
                Ratio(sums.decode_ns, sums.decoded_postings));
    report->Set("simd.scalar_over_dispatched",
                Ratio(sums.scalar_ns, sums.dispatched_ns));
    report->Set("storage.read_block_us", sums.Mean(sums.read_block));
    report->Set("storage.seq_pages", sums.Mean(sums.seq_pages));
    report->Set("storage.rand_pages", sums.Mean(sums.rand_pages));
    report->Set("storage.pool_hit_ratio",
                Ratio(sums.pool_hits, sums.pool_hits + sums.pool_misses));
    report->Set("storage.pool_misses", sums.Mean(sums.pool_misses));
    report->Set("serve.scatter_us", sums.Mean(sums.scatter));
    report->Set("serve.merge_us", sums.Mean(sums.merge));
    report->Set("serve.shard_us", sums.Mean(sums.shard_mean));
    report->Line("slowest shard per query: mean " +
                 Num(sums.Mean(sums.shard_max)) + " us; simd kernel " +
                 dispatched.name);
    report->Section(
        "layers",
        LayerTable({{"text.tokenize", sums.Mean(sums.tokenize)},
                    {"core.prepare", sums.Mean(sums.prepare)},
                    {"serve.scatter", sums.Mean(sums.scatter)},
                    {"serve.merge", sums.Mean(sums.merge)},
                    {"serve.select_other",
                     sums.Mean(sums.select - sums.scatter - sums.merge)}},
                   sums.Mean(sums.e2e), sums.Mean(sums.root_self), report));
    report->Section(
        "shard_work",
        JsonObject({{"shard_mean_us", Num(sums.Mean(sums.shard_mean))},
                    {"shard_max_us", Num(sums.Mean(sums.shard_max))},
                    {"sketch_plan_us_all_shards", Num(sums.Mean(sums.plan))},
                    {"index_seek_us_all_shards", Num(sums.Mean(sums.seek))},
                    {"storage_read_us_all_shards", Num(sums.Mean(sums.read_block))},
                    {"simd_kernel", JsonString(dispatched.name)}}));
    if (!WriteSpans(log, *report)) report->Line("warning: span dump failed");
  }
  report->Line("linear-scan spot checks: " +
               std::to_string(oracle.scan_checks()));
}

}  // namespace simbench
