// simsel_cli — command-line front end for building, persisting and querying
// set similarity indexes over plain text files (one record per line).
//
//   simsel_cli build <records.txt> <index.simsel>
//       Tokenizes the file (3-grams), builds the inverted index and writes
//       it next to the records for later use.
//
//   simsel_cli query <records.txt> <index.simsel> <text> [--tau=75]
//              [--algo=sf|inra|hybrid|ita|sortbyid|pf] [--k=N]
//              [--deadline-ms=N] [--max-elements=N]
//       Loads the saved index (verifying it matches the records) and runs
//       one selection (or top-k when --k is given). --deadline-ms and
//       --max-elements bound the query; a tripped run prints its partial
//       result with the termination reason.
//
//   simsel_cli repl <records.txt> <index.simsel>
//       Interactive loop: one query per stdin line.
//
//   simsel_cli stats <records.txt> <index.simsel>
//       Prints the Figure 5-style size breakdown of the loaded index.
//
//   simsel_cli join <records.txt> <index.simsel> [--tau=75]
//       Self-join: lists duplicate clusters among the records.
//
//   simsel_cli serve <records.txt> ["<text>"] [--shards=N] [--cache-mb=M]
//              [--rebuild-every=N]
//       Serving: one DynamicServing over the records — a main part cut
//       into N segments, each query fanned out across them on a thread
//       pool, plus a delta of inserted records — behind an LRU result
//       cache (see docs/ARCHITECTURE.md). One query when <text> is given,
//       otherwise a repl: lines starting with `+` insert a record,
//       `!rebuild` folds the delta online; both proceed concurrently with
//       queries. Cached answers are stamped with the rebuild generation
//       and delta cut that produced them: an insert invalidates nothing,
//       the next hit patches the answer with the newer delta records, and
//       a rebuild starts a new generation whose queries miss.
//       --rebuild-every=N folds automatically in the background once the
//       delta holds N records.
//
//   simsel_cli serve <records.txt> --port=N [--listen=ADDR] [--max-queue=N]
//       Network serving: the same back end behind a TCP line-protocol
//       front end (src/serve/server.h) with queue-depth admission control,
//       per-request deadline SLOs (--deadline-ms) and element budgets
//       (--max-elements). SIGTERM/ctrl-c drains gracefully: in-flight
//       requests finish and flush before the process exits.
//
//   simsel_cli --explain "<text>" [--tau 0.8] [--words=N] [--stats]
//       Builds a self-contained demo environment, runs the query with SF,
//       iNRA and Hybrid, and prints the per-phase trace (durations, item
//       counts) plus the access counters for each. With --stats the
//       process-wide metrics registry is dumped afterwards.
//
//   simsel_cli --stats
//       Runs a small demo workload and dumps the metrics registry in
//       Prometheus text exposition format.
//
// --tau accepts either form everywhere: a fraction (`--tau 0.8`,
// `--tau=0.8`) or a percentage (`--tau=75`). Anything else — trailing
// junk, non-finite values, τ <= 0, τ > 100 — is a usage error; the CLI is
// strict so a typo like `--tau=abc` cannot silently query at some default.
// Every numeric flag is parsed with the same strictness (full consumption,
// range validation — common/cli_flags.h): a malformed value prints one
// diagnostic line on stdout and exits 2 instead of running with a default.
// An unknown `--algo` name likewise exits 2 (diagnostic on stderr) rather
// than running another algorithm.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/cli_flags.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/selector.h"
#include "core/self_join.h"
#include "eval/experiment.h"
#include "gen/corpus.h"
#include "gen/workload.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/dynamic_serving.h"
#include "serve/server.h"

namespace {

using namespace simsel;

// One help text for both paths: `--help` prints it on stdout and exits 0;
// a usage error prints it on stderr and exits 2. scripts/check_docs.py
// cross-checks every flag the documentation mentions against this output.
constexpr char kHelp[] =
    "usage: simsel_cli <command> [options]\n"
    "\n"
    "commands:\n"
    "  build <records.txt> <index.simsel>        tokenize the records (one\n"
    "                                            per line) and save the index\n"
    "  query <records.txt> <index.simsel> <text> run one selection\n"
    "  repl  <records.txt> <index.simsel>        one query per stdin line\n"
    "  stats <records.txt> <index.simsel>        index size breakdown\n"
    "  join  <records.txt> <index.simsel>        self-join duplicate clusters\n"
    "  serve <records.txt> [<text>]              segmented, writable\n"
    "                                            serving with a result cache;\n"
    "                                            runs one query when <text>\n"
    "                                            is given, else a repl that\n"
    "                                            also accepts `+<text>`\n"
    "                                            inserts and a `!rebuild`\n"
    "                                            command\n"
    "  --explain \"<text>\"                        self-contained demo: per-\n"
    "                                            phase trace for SF/iNRA/\n"
    "                                            Hybrid on a synthetic corpus\n"
    "  --stats                                   demo workload, then dump the\n"
    "                                            metrics registry\n"
    "\n"
    "options:\n"
    "  --tau=X           threshold: a fraction in (0,1] or a percentage in\n"
    "                    (1,100]; `--tau X` also accepted (default 0.75)\n"
    "  --algo=NAME       sf|inra|hybrid|ita|ta|nra|sortbyid|pf|scan\n"
    "  --k=N             top-k mode instead of a threshold query\n"
    "  --deadline-ms=N   wall-clock bound; a tripped query returns its exact\n"
    "                    partial result with the termination reason\n"
    "  --max-elements=N  posting-read budget; partial results as above\n"
    "  --shards=N        (serve) number of index segments of the main\n"
    "                    part, default 4; inserts (`+<text>` repl lines,\n"
    "                    `I` requests) and online rebuilds proceed\n"
    "                    concurrently with queries\n"
    "  --cache-mb=M      (serve) result cache capacity in MiB; 0 disables,\n"
    "                    default 64\n"
    "  --rebuild-every=N (serve) fold the delta into the main part in the\n"
    "                    background once it holds N records; 0 (default)\n"
    "                    rebuilds only on the `!rebuild` command\n"
    "  --port=N          (serve) serve the line protocol on TCP port N\n"
    "                    instead of the stdin repl (0 picks an ephemeral\n"
    "                    port, printed on startup); SIGTERM or ctrl-c drains\n"
    "                    in-flight requests and exits cleanly\n"
    "  --listen=ADDR     (serve --port) bind address, default 127.0.0.1\n"
    "  --max-queue=N     (serve --port) admission bound: requests arriving\n"
    "                    while N admitted ones are queued or executing are\n"
    "                    shed immediately with a SHED response; 0 = no\n"
    "                    bound, default 64\n"
    "  --index-version=N (build) serialized index format: 4 (default;\n"
    "                    compressed posting blocks + a sketch section, empty\n"
    "                    unless --sketch-k is given), 3 (compressed blocks,\n"
    "                    no sketches) or 2 (legacy uncompressed, for\n"
    "                    migration); `query`/`repl` read all three\n"
    "  --sketch-k=N      (build) opt in to the MinHash prefilter tier with N\n"
    "                    signature components per set (8N bytes each; 256\n"
    "                    is the tuned family); default 0 = no sketches\n"
    "  --no-prefilter    (query/repl/serve) on an image that carries\n"
    "                    sketches, answer with the exact kernels only,\n"
    "                    never the sketch tier; results are identical either\n"
    "                    way (the tier is exact), so this is for accounting\n"
    "                    and ablation\n"
    "  --words=N         synthetic corpus size for --explain / --stats\n"
    "  --explain         with `query`: print the per-phase trace\n"
    "  --trace-out=FILE  (query/serve) record a span trace of each query and\n"
    "                    write it as Chrome trace-event JSON (load in\n"
    "                    chrome://tracing or Perfetto); the file holds the\n"
    "                    most recent query\n"
    "  --slow-query-usec=N  (serve) queries slower than N microseconds dump\n"
    "                    their full span tree and counters as one JSON line\n"
    "                    on stderr; tripped or failed queries always do\n"
    "  --stats-every=N   (serve) dump the metrics registry to stderr every N\n"
    "                    seconds while serving\n"
    "  --help            print this help and exit\n";

int Usage() {
  std::fputs(kHelp, stderr);
  return 2;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  return cli::HasFlag(argc, argv, flag);
}

/// `--key=value` string flag; empty string when absent.
std::string StringFlag(int argc, char** argv, const char* key) {
  return cli::StringFlag(argc, argv, key);
}

/// Strict `--key=N` parse (common/cli_flags.h): full consumption and range
/// validation, diagnostic on stdout. Returns false on a malformed value —
/// the caller exits 2 so a typo like `--shards=4x` can never run with a
/// default it did not ask for.
bool StrictCount(int argc, char** argv, const char* key, uint64_t fallback,
                 uint64_t min_value, uint64_t max_value, size_t* out) {
  uint64_t v = 0;
  std::string error;
  if (!cli::ParseCountFlag(argc, argv, key, fallback, min_value, max_value, &v,
                           &error)) {
    std::printf("%s\n", error.c_str());
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

/// Writes `trace` as Chrome trace-event JSON; logs where it went.
void WriteTraceFile(const std::string& path, const obs::QueryTrace& trace) {
  if (obs::WriteTextFile(path, obs::ToChromeTraceJson(trace))) {
    std::fprintf(stderr, "trace written to %s (chrome://tracing)\n",
                 path.c_str());
  }
}

/// Parses --tau in either `--tau=X` or `--tau X` form into `*tau` via the
/// shared strict parser (common/cli_flags.h). A value in (0, 1] is a
/// fraction; one in (1, 100] is a percentage (the historical `--tau=75`
/// form). Returns false — with the diagnostic printed on stdout — on any
/// malformed value. The flag being absent is not an error (`*tau` keeps the
/// fallback).
bool ParseTau(int argc, char** argv, double fallback, double* tau) {
  std::string error;
  if (!cli::ParseTauFlag(argc, argv, fallback, tau, &error)) {
    std::printf("%s\n", error.c_str());
    return false;
  }
  return true;
}

/// Parses `--algo=NAME` (the protocol's names, serve::ParseAlgoName; the
/// last occurrence wins) into `*kind`; absent means SF. Returns false — with
/// the flag and value named on stderr — on an unknown name: the caller exits
/// 2 rather than run an algorithm it was not asked for.
bool ParseAlgo(int argc, char** argv, AlgorithmKind* kind) {
  *kind = AlgorithmKind::kSf;
  const char* name = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--algo=", 7) == 0) name = argv[i] + 7;
  }
  if (name == nullptr || serve::ParseAlgoName(name, kind)) return true;
  std::fprintf(stderr,
               "bad --algo value \"%s\": not an algorithm name (see --help)\n",
               name);
  return false;
}

Result<SimilaritySelector> LoadSelector(const std::string& records_path,
                                        const std::string& index_path) {
  Result<Corpus> corpus = LoadCorpusFromFile(records_path);
  if (!corpus.ok()) return corpus.status();
  return SimilaritySelector::BuildWithSavedIndex(corpus->records, index_path);
}

/// Prints a result; `text_of(id)` returns the record text of a match.
template <class TextOf>
void PrintMatches(const QueryResult& r, double elapsed_ms, TextOf text_of) {
  std::printf("%zu matches in %.2f ms (read %llu/%llu postings)\n",
              r.matches.size(), elapsed_ms,
              (unsigned long long)r.counters.elements_read,
              (unsigned long long)r.counters.elements_total);
  if (!r.status.ok()) {
    std::printf("  !! query failed: %s\n", r.status.ToString().c_str());
  } else if (r.termination != Termination::kCompleted) {
    std::printf("  !! partial result (%s tripped) — matches shown are exact "
                "but may be incomplete\n",
                TerminationName(r.termination));
  }
  size_t shown = 0;
  for (const Match& m : r.matches) {
    if (shown++ >= 20) {
      std::printf("  ... and %zu more\n", r.matches.size() - shown + 1);
      break;
    }
    std::printf("  [%u] %-40s %.3f\n", m.id, text_of(m.id).c_str(),
                m.score);
  }
}

int RunQuery(const SimilaritySelector& sel, const std::string& text,
             double tau, AlgorithmKind kind, size_t k, bool explain = false,
             size_t deadline_ms = 0, size_t max_elements = 0,
             const std::string& trace_out = "", bool prefilter = true) {
  obs::QueryTrace trace;
  SelectOptions options;
  options.prefilter = prefilter;
  if (explain || !trace_out.empty()) options.trace = &trace;
  // The deadline is absolute, so anchor it here, per call — in the repl
  // every line gets its own `deadline_ms` of wall time.
  if (deadline_ms > 0) {
    options.control.deadline =
        QueryControl::DeadlineAfterMillis(static_cast<int64_t>(deadline_ms));
  }
  options.control.max_elements_read = max_elements;
  WallTimer timer;
  QueryResult r = (k > 0) ? sel.SelectTopK(text, k, options)
                          : sel.Select(text, tau, kind, options);
  PrintMatches(r, timer.ElapsedMillis(),
               [&](SetId id) { return sel.collection().text(id); });
  if (explain) {
    std::printf("%s", trace.ToString().c_str());
    std::printf("counters: %s\n", r.counters.ToString().c_str());
  }
  if (!trace_out.empty()) WriteTraceFile(trace_out, trace);
  return 0;
}

void DumpRegistry() {
  std::fputs(
      obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot()).c_str(),
      stdout);
}

/// `--explain "<text>"`: self-contained trace demo. Builds a synthetic
/// word-occurrence environment (no files needed), runs the query with each
/// of the paper's main algorithms and prints the per-phase breakdown.
int RunExplain(int argc, char** argv) {
  std::string text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tau") == 0 || std::strcmp(argv[i], "--k") == 0) {
      ++i;  // skip the flag's value
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) continue;
    if (!text.empty()) text += ' ';
    text += argv[i];
  }
  double tau;
  if (!ParseTau(argc, argv, 0.8, &tau)) return Usage();
  BenchEnvOptions env_opts;
  env_opts.num_words = FlagValue(argc, argv, "words", 20000);
  std::fprintf(stderr, "building demo index over %zu word occurrences...\n",
               env_opts.num_words);
  BenchEnv env = MakeBenchEnv(env_opts);
  if (text.empty()) text = env.words[123];
  std::printf("query=\"%s\" tau=%.2f\n", text.c_str(), tau);
  for (AlgorithmKind kind : {AlgorithmKind::kSf, AlgorithmKind::kInra,
                             AlgorithmKind::kHybrid}) {
    obs::QueryTrace trace;
    SelectOptions options;
    options.trace = &trace;
    QueryResult r = env.selector->Select(text, tau, kind, options);
    std::printf("\n--- %s: %zu matches ---\n", AlgorithmKindName(kind),
                r.matches.size());
    std::printf("%s", trace.ToString().c_str());
    std::printf("counters: %s\n", r.counters.ToString().c_str());
  }
  if (HasFlag(argc, argv, "--stats")) {
    std::printf("\n# metrics registry\n");
    DumpRegistry();
  }
  return 0;
}

/// `--stats` with no other command: run a small demo workload so the dump
/// has content, then print the registry in Prometheus text format.
int RunStats(int argc, char** argv) {
  BenchEnvOptions env_opts;
  env_opts.num_words = FlagValue(argc, argv, "words", 20000);
  std::fprintf(stderr, "building demo index over %zu word occurrences...\n",
               env_opts.num_words);
  BenchEnv env = MakeBenchEnv(env_opts);
  WorkloadOptions wo;
  wo.num_queries = 25;
  Workload wl = GenerateWordWorkload(env.words, env.selector->tokenizer(), wo);
  for (AlgorithmKind kind : {AlgorithmKind::kSf, AlgorithmKind::kInra,
                             AlgorithmKind::kHybrid}) {
    for (const std::string& q : wl.queries) {
      env.selector->Select(q, 0.8, kind);
    }
  }
  DumpRegistry();
  return 0;
}

/// Drain target of the SIGTERM/SIGINT handler. RequestStop is one
/// async-signal-safe eventfd write, so calling it from the handler is legal.
serve::Server* g_signal_server = nullptr;

void OnStopSignal(int) {
  if (g_signal_server != nullptr) g_signal_server->RequestStop();
}

/// `serve <records.txt> --port=N`: the network front end over `serving`,
/// behind the TCP line protocol of serve/server.h: queue-depth admission
/// control (--max-queue), a per-request deadline SLO (--deadline-ms,
/// anchored at admission), a default per-tenant element budget
/// (--max-elements), and graceful drain on SIGTERM/SIGINT — stop accepting,
/// finish and flush every admitted request, then exit with a reconciliation
/// summary.
int RunServeNetwork(serve::DynamicServing* serving, int argc, char** argv,
                    const std::string& listen, uint16_t port,
                    size_t deadline_ms, size_t max_elements) {
  size_t max_queue;
  if (!StrictCount(argc, argv, "max-queue", 64, 0, 1u << 20, &max_queue)) {
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  serve::ServerOptions so;
  so.listen_addr = listen;
  so.port = port;
  so.num_workers = std::max(2u, hw == 0 ? 2u : hw);
  so.max_queue = max_queue;
  so.deadline_ms = deadline_ms;
  so.default_element_budget = max_elements;
  serve::Server server(serving, so);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  g_signal_server = &server;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  // The bound port goes to stdout (scripts parse it; --port=0 is ephemeral).
  std::printf("listening on %s:%u (%zu records over %zu segments, "
              "workers=%zu max-queue=%zu deadline-ms=%zu)\n",
              listen.c_str(), server.port(), serving->selector().size(),
              serving->selector().snapshot().main().num_segments(),
              so.num_workers, max_queue, deadline_ms);
  std::fflush(stdout);
  server.Join();
  g_signal_server = nullptr;
  std::printf("drained: ok=%llu partial=%llu shed=%llu err=%llu inserts=%llu "
              "in-flight=%zu\n",
              (unsigned long long)server.ok_count(),
              (unsigned long long)server.partial_count(),
              (unsigned long long)server.shed_count(),
              (unsigned long long)server.error_count(),
              (unsigned long long)server.insert_count(),
              server.queue_depth());
  return server.queue_depth() == 0 ? 0 : 1;
}

/// `serve <records.txt> [<text>]`: the serving front end. Builds one
/// DynamicServing over the records — a main part of --shards segments
/// (global statistics, per-segment indexes) plus a delta for inserts —
/// with a thread pool sized to the machine for the segment fan-out and
/// rebuilds, and a versioned result cache in front. With --port it serves
/// the line protocol; otherwise it answers one query (when <text> is given)
/// or runs a repl where `+<text>` inserts, `!rebuild` folds the delta
/// online and any other line queries. The cache line after every query
/// shows the effect of repeats and of the version bump each insert makes.
int RunServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<Corpus> corpus = LoadCorpusFromFile(argv[2]);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  double tau;
  if (!ParseTau(argc, argv, 0.75, &tau)) return Usage();
  AlgorithmKind kind;
  if (!ParseAlgo(argc, argv, &kind)) return 2;
  // --port switches to the network front end (tau/algo then arrive per
  // request over the wire). The UINT64_MAX fallback distinguishes "absent"
  // from an explicit --port=0 (ephemeral).
  size_t port_flag, shards, cache_mb, rebuild_every, deadline_ms,
      max_elements, slow_usec, stats_every;
  if (!StrictCount(argc, argv, "port", UINT64_MAX, 0, 65535, &port_flag) ||
      !StrictCount(argc, argv, "shards", 4, 1, 256, &shards) ||
      !StrictCount(argc, argv, "cache-mb", 64, 0, 1u << 16, &cache_mb) ||
      !StrictCount(argc, argv, "rebuild-every", 0, 0, UINT32_MAX,
                   &rebuild_every) ||
      !StrictCount(argc, argv, "deadline-ms", 0, 0, 86400000, &deadline_ms) ||
      !StrictCount(argc, argv, "max-elements", 0, 0, UINT64_MAX,
                   &max_elements) ||
      !StrictCount(argc, argv, "slow-query-usec", 0, 0, UINT64_MAX,
                   &slow_usec) ||
      !StrictCount(argc, argv, "stats-every", 0, 0, 86400, &stats_every)) {
    return 2;
  }
  const bool network = port_flag != static_cast<size_t>(UINT64_MAX);
  const std::string listen = StringFlag(argc, argv, "listen");
  if (!network && !listen.empty()) {
    std::printf("--listen requires --port\n");
    return 2;
  }
  const std::string trace_out = StringFlag(argc, argv, "trace-out");

  // Tail sampling is always on; the flag adds a latency threshold and makes
  // captured records visible (tripped/failed queries are captured even
  // without it — the sink is what surfaces them here).
  if (slow_usec > 0) {
    obs::FlightRecorder::Global().set_slow_query_usec(
        static_cast<uint64_t>(slow_usec));
  }
  if (slow_usec > 0 || deadline_ms > 0 || max_elements > 0) {
    obs::FlightRecorder::Global().SetSlowQuerySink(
        [](const std::string& json) {
          std::fprintf(stderr, "slow-query: %s\n", json.c_str());
        });
  }

  // The server's executor workers (network mode) block on each query's
  // segment fan-out, which must land on this *different* pool (the
  // nested-fan-out starvation rule, docs/CONCURRENCY.md).
  const unsigned hw = std::thread::hardware_concurrency();
  ThreadPool pool(std::max(1u, (hw == 0 ? 2u : hw) - 1));
  serve::DynamicServingOptions so;
  so.build.num_segments = shards;
  so.cache_bytes = cache_mb << 20;
  so.rebuild_threshold = rebuild_every;
  so.pool = &pool;
  WallTimer build_timer;
  serve::DynamicServing serving(corpus->records, so);
  std::fprintf(stderr,
               "serving %zu records over %zu segments (%zu MiB cache%s) — "
               "built in %.2fs\n",
               corpus->records.size(),
               serving.selector().snapshot().main().num_segments(), cache_mb,
               rebuild_every > 0 ? ", auto-rebuild" : "",
               build_timer.ElapsedSeconds());

  // Periodic registry dump: a detached-looking but joined helper thread so
  // long sessions show their serving stats without a scrape endpoint.
  std::atomic<bool> stop_stats{false};
  std::thread stats_thread;
  if (stats_every > 0) {
    stats_thread = std::thread([&stop_stats, stats_every] {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::seconds(stats_every);
      while (!stop_stats.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::seconds(stats_every);
        std::string text =
            obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
        std::fprintf(stderr, "--- metrics ---\n%s--- end metrics ---\n",
                     text.c_str());
      }
    });
  }
  auto finish = [&](int code) {
    if (stats_thread.joinable()) {
      stop_stats.store(true, std::memory_order_relaxed);
      stats_thread.join();
    }
    serving.selector().WaitForRebuild();
    return code;
  };
  if (network) {
    return finish(RunServeNetwork(&serving, argc, argv,
                                  listen.empty() ? "127.0.0.1" : listen,
                                  static_cast<uint16_t>(port_flag),
                                  deadline_ms, max_elements));
  }

  const bool use_prefilter = !HasFlag(argc, argv, "--no-prefilter");
  auto run_one = [&](const std::string& text) {
    obs::QueryTrace trace;
    SelectOptions options;
    options.prefilter = use_prefilter;
    if (!trace_out.empty()) options.trace = &trace;
    if (deadline_ms > 0) {
      options.control.deadline =
          QueryControl::DeadlineAfterMillis(static_cast<int64_t>(deadline_ms));
    }
    options.control.max_elements_read = max_elements;
    WallTimer timer;
    QueryResult r = serving.Select(text, tau, kind, options);
    PrintMatches(r, timer.ElapsedMillis(),
                 [&](SetId id) { return serving.selector().text(id); });
    std::printf("  version %llu, %zu in delta\n",
                (unsigned long long)r.snapshot_version,
                serving.selector().delta_size());
    if (!trace_out.empty()) WriteTraceFile(trace_out, trace);
    if (serving.result_cache() != nullptr) {
      const serve::ResultCache& cache = *serving.result_cache();
      std::printf("  cache: %llu hits (%llu patched over inserts) / %llu "
                  "misses (%.1f%% hit rate, %zu entries)\n",
                  (unsigned long long)cache.hits(),
                  (unsigned long long)cache.patches(),
                  (unsigned long long)cache.misses(), 100.0 * cache.HitRate(),
                  cache.entries());
    }
  };

  // Non-flag arguments after the records path form a one-shot query.
  std::string text;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tau") == 0) {
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) continue;
    if (!text.empty()) text += ' ';
    text += argv[i];
  }
  if (!text.empty()) {
    run_one(text);
    return finish(0);
  }
  std::printf("tau=%.2f algo=%s segments=%zu — `+<text>` inserts, "
              "`!rebuild` folds the delta, any other line queries, ctrl-d "
              "to exit\n",
              tau, AlgorithmKindName(kind),
              serving.selector().snapshot().main().num_segments());
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line[0] == '+') {
      std::string record = line.substr(1);
      if (record.empty()) continue;
      SetId id = serving.AddRecord(std::move(record));
      std::printf("inserted [%u] (version %llu, %zu in delta)\n", id,
                  (unsigned long long)serving.version(),
                  serving.selector().delta_size());
      continue;
    }
    if (line == "!rebuild") {
      WallTimer timer;
      serving.Rebuild();
      std::printf("rebuilt in %.2fs (version %llu, %zu records)\n",
                  timer.ElapsedSeconds(),
                  (unsigned long long)serving.version(),
                  serving.selector().size());
      continue;
    }
    run_one(line);
  }
  return finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--help")) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  if (argc < 2) return Usage();
  std::string cmd = argv[1];

  if (HasFlag(argc, argv, "--explain") && cmd[0] == '-') {
    return RunExplain(argc, argv);
  }
  if (cmd == "--stats") return RunStats(argc, argv);
  if (cmd == "serve") return RunServe(argc, argv);

  if (cmd == "build") {
    if (argc < 4) return Usage();
    size_t version;
    if (!StrictCount(argc, argv, "index-version",
                     InvertedIndex::kVersionLatest, 0, 255, &version)) {
      return 2;
    }
    if (version != InvertedIndex::kVersionLegacy &&
        version != InvertedIndex::kVersionBlocks &&
        version != InvertedIndex::kVersionLatest) {
      std::fprintf(stderr, "bad --index-version value %zu: supported are %u "
                   "(legacy, uncompressed), %u (compressed blocks) and %u "
                   "(compressed blocks + sketch section)\n",
                   version, InvertedIndex::kVersionLegacy,
                   InvertedIndex::kVersionBlocks,
                   InvertedIndex::kVersionLatest);
      return 2;
    }
    BuildOptions build_opts;
    size_t sketch_k;
    if (!StrictCount(argc, argv, "sketch-k", 0, 0, 1u << 16, &sketch_k)) {
      return 2;
    }
    if (sketch_k > 0) {
      build_opts.index.build_sketches = true;
      build_opts.index.sketch.k = static_cast<uint32_t>(sketch_k);
      // Keep bands * rows <= k as k shrinks; fewer bands raise the engage
      // bar rather than invalidating the family (see sketch/minhash.h).
      build_opts.index.sketch.bands = std::max<uint32_t>(
          1, static_cast<uint32_t>(sketch_k) / build_opts.index.sketch.rows);
    }
    Result<Corpus> corpus = LoadCorpusFromFile(argv[2]);
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
      return 1;
    }
    WallTimer timer;
    SimilaritySelector sel =
        SimilaritySelector::Build(corpus->records, build_opts);
    Status st = sel.SaveIndex(argv[3], static_cast<uint32_t>(version));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const IndexFileStats fs =
        sel.index().EncodedStats(static_cast<uint32_t>(version));
    std::printf("indexed %zu records (%zu tokens, %llu postings) in %.2fs "
                "-> %s (format v%zu, sketch section %llu bytes)\n",
                corpus->records.size(), sel.index().num_tokens(),
                (unsigned long long)sel.index().total_postings(),
                timer.ElapsedSeconds(), argv[3], version,
                (unsigned long long)fs.sketch_payload_bytes);
    return 0;
  }

  if (cmd == "query" || cmd == "repl" || cmd == "stats" || cmd == "join") {
    if (argc < 4) return Usage();
    Result<SimilaritySelector> sel = LoadSelector(argv[2], argv[3]);
    if (!sel.ok()) {
      std::fprintf(stderr, "%s\n", sel.status().ToString().c_str());
      return 1;
    }
    if (cmd == "stats") {
      IndexSizeReport sizes = sel->Sizes();
      std::printf("base table                    %10zu bytes\n",
                  sizes.base_table);
      std::printf("inverted lists                %10zu bytes\n",
                  sizes.inverted_lists);
      std::printf("skip lists (block summaries)  %10zu bytes\n",
                  sizes.skip_lists);
      std::printf("sketches                      %10zu bytes\n",
                  sizes.sketches);
      return 0;
    }
    double tau;
    if (!ParseTau(argc, argv, 0.75, &tau)) return Usage();
    size_t k, deadline_ms, max_elements;
    if (!StrictCount(argc, argv, "k", 0, 0, 1u << 20, &k) ||
        !StrictCount(argc, argv, "deadline-ms", 0, 0, 86400000,
                     &deadline_ms) ||
        !StrictCount(argc, argv, "max-elements", 0, 0, UINT64_MAX,
                     &max_elements)) {
      return 2;
    }
    AlgorithmKind kind;
    if (!ParseAlgo(argc, argv, &kind)) return 2;
    bool explain = HasFlag(argc, argv, "--explain");
    if (cmd == "join") {
      WallTimer timer;
      SelfJoinResult joined = SelfJoin(*sel, tau);
      auto clusters = ClusterPairs(sel->collection().size(), joined.pairs);
      std::printf("%zu duplicate pairs, %zu clusters in %.2fs (tau=%.2f)\n",
                  joined.pairs.size(), clusters.size(),
                  timer.ElapsedSeconds(), tau);
      size_t shown = 0;
      for (const auto& cluster : clusters) {
        if (shown++ >= 15) {
          std::printf("  ... and %zu more clusters\n",
                      clusters.size() - shown + 1);
          break;
        }
        std::printf("  cluster of %zu:\n", cluster.size());
        for (SetId id : cluster) {
          std::printf("    [%u] %s\n", id, sel->collection().text(id).c_str());
        }
      }
      return 0;
    }
    if (cmd == "query") {
      if (argc < 5) return Usage();
      // Non-flag arguments after the index path form the query text
      // (values of space-separated flags like `--tau 0.8` are not text).
      std::string text;
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tau") == 0 ||
            std::strcmp(argv[i], "--k") == 0) {
          ++i;
          continue;
        }
        if (std::strncmp(argv[i], "--", 2) != 0) {
          if (!text.empty()) text += ' ';
          text += argv[i];
        }
      }
      if (text.empty()) return Usage();
      return RunQuery(*sel, text, tau, kind, k, explain, deadline_ms,
                      max_elements, StringFlag(argc, argv, "trace-out"),
                      !HasFlag(argc, argv, "--no-prefilter"));
    }
    // repl
    std::printf("tau=%.2f algo=%s%s — one query per line, ctrl-d to exit\n",
                tau, AlgorithmKindName(kind),
                k > 0 ? (" k=" + std::to_string(k)).c_str() : "");
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      RunQuery(*sel, line, tau, kind, k, /*explain=*/false, deadline_ms,
               max_elements, StringFlag(argc, argv, "trace-out"),
               !HasFlag(argc, argv, "--no-prefilter"));
    }
    return 0;
  }

  return Usage();
}
