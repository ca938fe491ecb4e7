// serve-rw: a serve::Server over DynamicServing reached over loopback TCP
// (the bench_ycsb setup with a fixed offered load). A closed-loop leg on two
// connections, each with a few requests in flight, measures throughput and
// query latency at capacity, then an open-loop leg at a fixed rate measures
// latency from each request's scheduled send time, with rank-Zipf query
// popularity and 5% near-duplicate inserts.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/internal.h"
#include "core/selector.h"
#include "gen/load.h"
#include "gen/workload.h"
#include "gen/zipf.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "serve/dynamic_serving.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "workloads.h"

namespace simbench {
namespace {

using simsel::AlgorithmKind;
using simsel::Match;

constexpr size_t kServeWords = 20000;
/// Query pool drawn rank-Zipf; words of 6-15 3-grams as in bench_ycsb.
constexpr size_t kQueryPool = 480;
constexpr size_t kInsertPool = 4096;
constexpr double kZipfSkew = 0.99;
constexpr double kInsertFraction = 0.05;
constexpr double kTau = 0.5;
constexpr AlgorithmKind kKind = AlgorithmKind::kSf;

constexpr size_t kConnections = 2;
constexpr size_t kServerWorkers = 2;
/// Deep enough that the fixed offered load never sheds.
constexpr size_t kMaxQueue = 1024;
constexpr size_t kCacheBytes = 4u << 20;
constexpr size_t kRebuildThreshold = 1024;
constexpr size_t kRebuildThreads = 1;
/// Set-up repetitions per run; setup_s is their median. A set-up here takes
/// a fifth of a grid index build, so it repeats more for the same
/// steadiness.
constexpr int kServeSetupReps = 9;

/// The open-loop leg's offered load, requests per second over all
/// connections. Fixed here so every commit sees the same arrivals; it sits
/// well below the closed-loop capacity measured on a 4-core x86-64 VM.
constexpr double kOpenRate = 3000.0;

/// Share of the run spent in the closed loop; the rest is open loop.
constexpr double kClosedShare = 0.5;
/// Requests each closed-loop connection keeps in flight. With one, every
/// request waits for sleeping threads to wake on both sides of the wire,
/// and on a shared VM that wake-up time drifts between runs by more than
/// the server's own work; with a few queued, the workers stay busy and the
/// loop measures the server's capacity.
constexpr size_t kWindow = 4;
/// The closed loop runs as an unmeasured warm-up sub-leg, which grows the
/// delta to its working size, then kClosedSubLegs equal sub-legs (each
/// holds a few thousand queries); it reports the median sub-leg throughput
/// and query latency (send to reply, queueing included). These are the
/// end-to-end figures; the median keeps out the sub-legs a host stall hits.
constexpr int kClosedSubLegs = 30;
/// The open loop runs as sub-legs of this length (each holds over a
/// thousand queries at kOpenRate) and reports the median sub-leg p50 and
/// p99 from the scheduled send time. Every few-millisecond stall of the
/// host VM backs up a whole queue of arrivals, so on a shared VM these
/// figures swing with the host; they are reported per layer.
constexpr double kOpenSubLegSeconds = 0.4;

struct Pools {
  std::vector<std::string> queries;
  std::vector<std::string> inserts;
};

/// What a connection sends next: a Zipf-ranked query or, with probability
/// kInsertFraction, the next insert of its share of the insert pool. The
/// rank-to-query order is drawn from `seed` alone, so the connections of
/// one sub-leg share it and each sub-leg has its own popular queries: the
/// top rank draws about 18% of the queries, and one fixed order would tie a
/// whole run's figures to the cost of one query.
class Picker {
 public:
  Picker(const Pools& pools, uint64_t seed, size_t conn)
      : pools_(pools),
        zipf_(pools.queries.size(), kZipfSkew),
        rng_(seed * 0x9E3779B97F4A7C15ull + conn + 1),
        order_(pools.queries.size()),
        insert_cursor_(conn) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    simsel::Rng shuffle(seed ^ 0xA5A5A5A5A5A5A5A5ull);
    shuffle.Shuffle(order_.size(), [&](size_t i, size_t j) {
      std::swap(order_[i], order_[j]);
    });
  }

  /// Formats request `rid`; returns true for an insert.
  bool Next(const std::string& rid, std::string* line) {
    if (rng_.NextBernoulli(kInsertFraction)) {
      *line = simsel::load::FormatInsert(
          rid, "-", pools_.inserts[insert_cursor_ % pools_.inserts.size()]);
      insert_cursor_ += kConnections;
      return true;
    }
    const size_t rank = zipf_.Sample(&rng_) % pools_.queries.size();
    *line = simsel::load::FormatQuery(rid, "-", kTau, kKind,
                                      pools_.queries[order_[rank]]);
    return false;
  }

 private:
  const Pools& pools_;
  simsel::ZipfSampler zipf_;
  simsel::Rng rng_;
  std::vector<size_t> order_;
  size_t insert_cursor_;
};

/// One request's client-side timeline.
struct Record {
  bool insert = false;
  bool ok = false;
  Clock::time_point scheduled{};
  Clock::time_point sent{};
  Clock::time_point received{};
};

struct LegStats {
  std::vector<Record> records;
  uint64_t errors = 0;  // transport / protocol failures
  uint64_t shed = 0;
  uint64_t partial = 0;
  uint64_t bad_answers = 0;
  uint64_t inserts_acked = 0;
  double wall_s = 0.0;

  std::vector<double> Latencies(bool inserts, bool from_schedule) const {
    std::vector<double> out;
    for (const Record& r : records) {
      if (!r.ok || r.insert != inserts) continue;
      out.push_back(MicrosBetween(from_schedule ? r.scheduled : r.sent,
                                  r.received));
    }
    return out;
  }
  uint64_t failed() const {
    return errors + shed + partial + bad_answers;
  }
  /// Pools another leg's records and tallies into this one.
  void Absorb(LegStats&& other) {
    records.insert(records.end(), other.records.begin(), other.records.end());
    errors += other.errors;
    shed += other.shed;
    partial += other.partial;
    bad_answers += other.bad_answers;
    inserts_acked += other.inserts_acked;
    wall_s += other.wall_s;
  }
};

/// Classifies one response; an OK query answer must list ascending ids with
/// scores at or above tau.
void Classify(const std::string& line, bool insert, Record* rec,
              LegStats* stats) {
  simsel::load::Response resp;
  if (!simsel::load::ParseResponse(line, &resp)) {
    ++stats->errors;
    return;
  }
  using Kind = simsel::load::Response::Kind;
  switch (resp.kind) {
    case Kind::kShed:
      ++stats->shed;
      return;
    case Kind::kPartial:
      ++stats->partial;
      return;
    case Kind::kError:
    case Kind::kPong:
      ++stats->errors;
      return;
    case Kind::kInsert:
      if (!insert) {
        ++stats->errors;
        return;
      }
      ++stats->inserts_acked;
      rec->ok = true;
      return;
    case Kind::kOk:
      if (insert) {
        ++stats->errors;
        return;
      }
      for (size_t i = 0; i < resp.matches.size(); ++i) {
        if ((i > 0 && resp.matches[i].id <= resp.matches[i - 1].id) ||
            resp.matches[i].score < kTau) {
          ++stats->bad_answers;
          return;
        }
      }
      rec->ok = true;
      return;
  }
}

/// The k of a response to request "<conn>-<k>"; SIZE_MAX when the line
/// carries no such id.
size_t RequestIndex(const std::string& line) {
  const size_t dash = line.find('-');
  const size_t space = line.find(' ');
  if (dash == std::string::npos || space == std::string::npos || dash > space) {
    return SIZE_MAX;
  }
  return std::strtoull(line.c_str() + dash + 1, nullptr, 10);
}

/// Closed loop: each connection keeps kWindow requests in flight and sends
/// the next one as each reply arrives, until `seconds` have passed; then it
/// collects the outstanding replies.
LegStats ClosedLoop(uint16_t port, const Pools& pools, uint64_t seed,
                    double seconds) {
  std::vector<LegStats> per(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LegStats& st = per[c];
      simsel::load::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++st.errors;
        return;
      }
      Picker picker(pools, seed, c);
      std::string line, resp;
      std::vector<Record>& sent = st.records;  // request k is sent[k]
      // On a transport failure, requests without a reply (and the one that
      // could not be sent) become errors, so records + errors = attempted.
      auto fail = [&](size_t unsent) {
        const size_t before = sent.size();
        std::erase_if(sent, [](const Record& r) {
          return r.received == Clock::time_point{};
        });
        st.errors += before - sent.size() + unsent;
      };
      auto send_next = [&] {
        Record rec;
        rec.insert = picker.Next(
            std::to_string(c) + "-" + std::to_string(sent.size()), &line);
        rec.scheduled = rec.sent = Clock::now();
        if (!client.SendLine(line).ok()) return false;
        sent.push_back(rec);
        return true;
      };
      for (size_t w = 0; w < kWindow; ++w) {
        if (!send_next()) return fail(1);
      }
      for (size_t done = 0; done < sent.size(); ++done) {
        if (!client.ReadLine(&resp).ok()) return fail(0);
        const Clock::time_point now = Clock::now();
        const size_t k = RequestIndex(resp);
        if (k >= sent.size()) {
          ++st.errors;
          continue;
        }
        sent[k].received = now;
        Classify(resp, sent[k].insert, &sent[k], &st);
        if (now < end && !send_next()) return fail(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LegStats total;
  for (LegStats& st : per) total.Absorb(std::move(st));
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

/// Open loop: each connection's sender departs request k at
/// start + (k + 1) / per-connection rate regardless of outstanding
/// responses; its reader matches responses by request id. `sample`, when
/// set, is called about every 5 ms on the calling thread while the leg runs.
template <typename SampleFn>
LegStats OpenLoop(uint16_t port, const Pools& pools, uint64_t seed,
                  double seconds, SampleFn&& sample) {
  const double per_conn_rate = kOpenRate / static_cast<double>(kConnections);
  const size_t quota = static_cast<size_t>(per_conn_rate * seconds);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_conn_rate));
  std::vector<LegStats> per(kConnections);
  std::atomic<size_t> running{kConnections};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LegStats& st = per[c];
      st.records.resize(quota);
      simsel::load::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        st.errors += quota;
        st.records.clear();
        running.fetch_sub(1);
        return;
      }
      std::mutex mu;  // guards st.records[k].sent/insert before the reply
      std::atomic<size_t> sent{0};
      std::atomic<bool> sender_done{false};
      std::thread reader([&] {
        std::string line;
        size_t received = 0;
        while (!(sender_done.load(std::memory_order_acquire) &&
                 received >= sent.load(std::memory_order_acquire))) {
          bool timed_out = false;
          if (!client.ReadLine(&line, 50, &timed_out).ok()) {
            if (timed_out) continue;
            const size_t expect = sent.load(std::memory_order_acquire);
            st.errors += expect > received ? expect - received : 0;
            return;
          }
          const Clock::time_point now = Clock::now();
          ++received;
          const size_t k = RequestIndex(line);
          if (k >= quota) {
            ++st.errors;
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          Record& rec = st.records[k];
          rec.received = now;
          Classify(line, rec.insert, &rec, &st);
        }
      });
      Picker picker(pools, seed + 1000, c);
      std::string line;
      size_t k = 0;
      for (; k < quota; ++k) {
        const Clock::time_point scheduled = start + interval * (k + 1);
        std::this_thread::sleep_until(scheduled);
        const bool insert =
            picker.Next(std::to_string(c) + "-" + std::to_string(k), &line);
        {
          std::lock_guard<std::mutex> lock(mu);
          st.records[k].insert = insert;
          st.records[k].scheduled = scheduled;
          st.records[k].sent = Clock::now();
        }
        if (!client.SendLine(line).ok()) {
          ++st.errors;
          break;
        }
        sent.fetch_add(1, std::memory_order_release);
      }
      sender_done.store(true, std::memory_order_release);
      reader.join();
      st.records.resize(k);
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : threads) t.join();
  LegStats total;
  for (LegStats& st : per) total.Absorb(std::move(st));
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

simsel::obs::HistogramSnapshot Minus(const simsel::obs::HistogramSnapshot& a,
                                     const simsel::obs::HistogramSnapshot& b) {
  simsel::obs::HistogramSnapshot d = a;
  for (size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
    d.buckets[i] -= b.buckets[i];
  }
  d.count -= b.count;
  d.sum -= b.sum;
  return d;
}

uint64_t RebuildsTotal() {
  return simsel::obs::MetricsRegistry::Global()
      .GetCounter("simsel_dynamic_rebuilds_total")
      ->Value();
}

/// The front door stood up once: rebuild pool, serving layer, server.
/// Members are destroyed in reverse: the server drains first, the rebuild
/// pool outlives the selector whose rebuilds it runs.
struct Stack {
  std::unique_ptr<simsel::ThreadPool> pool;
  std::unique_ptr<simsel::serve::DynamicServing> serving;
  std::unique_ptr<simsel::serve::Server> server;
};

std::unique_ptr<Stack> StandUp(const std::vector<std::string>& words,
                               Report* report) {
  auto stack = std::make_unique<Stack>();
  stack->pool = std::make_unique<simsel::ThreadPool>(kRebuildThreads);
  simsel::serve::DynamicServingOptions dso;
  dso.cache_bytes = kCacheBytes;
  dso.rebuild_threshold = kRebuildThreshold;
  dso.pool = stack->pool.get();
  stack->serving =
      std::make_unique<simsel::serve::DynamicServing>(words, dso);
  simsel::serve::ServerOptions so;
  so.num_workers = kServerWorkers;
  so.max_queue = kMaxQueue;
  so.deadline_ms = 0;
  stack->server =
      std::make_unique<simsel::serve::Server>(stack->serving.get(), so);
  simsel::Status st = stack->server->Start();
  if (!st.ok()) {
    report->Violation("server start: " + st.ToString());
    return nullptr;
  }
  return stack;
}

}  // namespace

void RunServeRw(Report* report) {
  const RunConfig& cfg = report->config();
  const std::vector<std::string> words = MakeWords(kServeWords);
  const uint64_t input_bytes = InputBytes(words);

  // The oracle: a static selector over the same records.
  const simsel::SimilaritySelector oracle =
      simsel::SimilaritySelector::Build(words);
  Pools pools;
  {
    simsel::WorkloadOptions wo;
    wo.num_queries = kQueryPool;
    wo.min_tokens = 6;
    wo.max_tokens = 15;
    wo.seed = cfg.seed * 31 + 7;
    pools.queries =
        simsel::GenerateWordWorkload(words, oracle.tokenizer(), wo).queries;
    wo.num_queries = kInsertPool;
    wo.modifications = 2;  // near-duplicates of existing words
    wo.seed = cfg.seed * 31 + 11;
    pools.inserts =
        simsel::GenerateWordWorkload(words, oracle.tokenizer(), wo).queries;
  }
  if (pools.queries.empty() || pools.inserts.empty()) {
    report->Violation("empty query or insert pool");
    return;
  }

  std::vector<double> reps;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kServeSetupReps; ++r) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = StandUp(words, report);
    reps.push_back(SecondsSince(t0));
    if (stack == nullptr) return;
  }
  SetSetup(reps, report);
  simsel::serve::DynamicServing& serving = *stack->serving;
  simsel::serve::Server& server = *stack->server;
  const uint16_t port = server.port();

  {
    simsel::DynamicSelector::Snapshot snap = serving.selector().snapshot();
    const uint64_t mem = SizeTotal(snap.main().Sizes());
    const uint64_t disk =
        snap.main()
            .index()
            .EncodedStats(simsel::InvertedIndex::kVersionLatest)
            .file_bytes;
    report->Set("mem_bytes_per_input_byte",
                static_cast<double>(mem) / static_cast<double>(input_bytes));
    report->Set("disk_bytes_per_input_byte",
                static_cast<double>(disk) / static_cast<double>(input_bytes));
  }

  // Exactness before the first insert: every distinct pool query over the
  // wire must equal the in-process answer byte for byte.
  {
    simsel::load::Client client;
    simsel::Status st = client.Connect("127.0.0.1", port);
    if (!st.ok()) {
      report->Violation("connect: " + st.ToString());
      return;
    }
    std::vector<std::string> distinct = pools.queries;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::string resp_line;
    for (size_t i = 0; i < distinct.size(); ++i) {
      const std::string rid = "o" + std::to_string(i);
      simsel::load::Response resp;
      if (!client.SendLine(simsel::load::FormatQuery(rid, "-", kTau, kKind,
                                                     distinct[i]))
               .ok() ||
          !client.ReadLine(&resp_line).ok() ||
          !simsel::load::ParseResponse(resp_line, &resp) ||
          resp.kind != simsel::load::Response::Kind::kOk) {
        report->Attempt(false);
        report->Violation("wire answer missing for \"" + distinct[i] + "\"");
        continue;
      }
      std::vector<Match> got;
      for (const auto& m : resp.matches) {
        got.push_back(Match{static_cast<simsel::SetId>(m.id), m.score});
      }
      const std::string diff =
          DiffMatches(oracle.Select(distinct[i], kTau, kKind).matches, got);
      if (!diff.empty()) {
        report->Violation("wire vs in-process on \"" + distinct[i] +
                          "\": " + diff);
      }
      report->Attempt(diff.empty());
    }
    report->Section("oracle_queries", std::to_string(distinct.size()));
  }

  const uint64_t rebuilds0 = RebuildsTotal();
  const double closed_s = cfg.seconds * kClosedShare;
  LegStats closed;
  std::vector<double> capacities, closed_p50s, closed_p99s;
  for (int k = -1; k < kClosedSubLegs; ++k) {
    LegStats leg = ClosedLoop(port, pools, cfg.seed * 1024 + 64 + k,
                              closed_s / (kClosedSubLegs + 1));
    if (k < 0) {  // warm-up: grows the delta to its working size
      closed.Absorb(std::move(leg));
      continue;
    }
    capacities.push_back(static_cast<double>(leg.records.size()) / leg.wall_s);
    const Summary cs = Summarize(leg.Latencies(false, false));
    if (!cs.p99_supported) {
      report->Violation("a closed-loop sub-leg has fewer than " +
                        std::to_string(MinSamplesFor(0.99)) +
                        " query samples; p99 unsupported");
    }
    closed_p50s.push_back(cs.p50);
    closed_p99s.push_back(cs.p99);
    closed.Absorb(std::move(leg));
  }
  report->AddAttempts(closed.records.size() + closed.errors, closed.failed());
  report->Set("queries_per_s", Median(capacities));
  report->Set("query_p50_us", Median(closed_p50s));
  report->Set("query_p99_us", Median(closed_p99s));

  // Fold the closed leg's inserts in, so the open loop starts from an empty
  // delta on every commit.
  serving.Rebuild();

  // Open loop. A traced run spends its first quarter untraced, as the
  // overhead baseline.
  const double open_s = cfg.seconds - closed_s;
  const int sub_legs = std::max(1, static_cast<int>(open_s / kOpenSubLegSeconds));
  const int base_legs = cfg.trace ? std::max(1, sub_legs / 4) : 0;
  double untraced_p50 = 0.0;
  {
    std::vector<double> base_p50s;
    for (int k = 0; k < base_legs; ++k) {
      LegStats base = OpenLoop(port, pools, cfg.seed * 1024 + 512 + k,
                               kOpenSubLegSeconds, [] {});
      report->AddAttempts(base.records.size() + base.errors, base.failed());
      base_p50s.push_back(Summarize(base.Latencies(false, true)).p50);
      closed.inserts_acked += base.inserts_acked;
    }
    untraced_p50 = Median(base_p50s);
  }
  simsel::serve::ResultCache* cache = serving.result_cache();
  const uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  const simsel::obs::HistogramSnapshot server0 = server.latency_snapshot();
  double delta_sum = 0.0, delta_samples = 0.0;
  LegStats open;
  std::vector<double> p50s, p99s;
  size_t query_samples = 0;
  for (int k = base_legs; k < sub_legs; ++k) {
    LegStats leg = OpenLoop(port, pools, cfg.seed * 1024 + 256 + k,
                            kOpenSubLegSeconds, [&] {
      if (!cfg.trace) return;
      delta_sum += static_cast<double>(serving.selector().delta_size());
      delta_samples += 1;
    });
    const Summary s = Summarize(leg.Latencies(false, true));
    if (!s.p99_supported) {
      report->Violation("an open-loop sub-leg has fewer than " +
                        std::to_string(MinSamplesFor(0.99)) +
                        " query samples; p99 unsupported");
    }
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
    query_samples += s.n;
    open.Absorb(std::move(leg));
  }
  const simsel::obs::HistogramSnapshot server_leg =
      Minus(server.latency_snapshot(), server0);
  const uint64_t hits = cache->hits() - hits0;
  const uint64_t misses = cache->misses() - misses0;
  report->AddAttempts(open.records.size() + open.errors, open.failed());
  const uint64_t inserts_total = closed.inserts_acked + open.inserts_acked;
  const uint64_t rebuilds = RebuildsTotal() - rebuilds0;

  const double open_p50 = Median(p50s);
  report->Set("load.open_p50_us", open_p50);
  report->Set("load.open_p99_us", Median(p99s));
  const Summary ins = Summarize(open.Latencies(true, true));
  report->Set("core.insert_p50_us", ins.p50);
  report->Set("core.insert_p99_us", ins.p99);
  report->Line("closed loop x" + std::to_string(kConnections) +
               " connections x" + std::to_string(kWindow) + " in flight: " +
               std::to_string(closed.records.size()) + " requests; median over " +
               std::to_string(kClosedSubLegs) + " sub-legs: " +
               Num(Median(capacities)) + " req/s, query p50 " +
               Num(Median(closed_p50s)) + " us, p99 " +
               Num(Median(closed_p99s)) + " us");
  report->Line("open loop at " + Num(kOpenRate) + " req/s: " +
               std::to_string(query_samples) + " query samples in " +
               std::to_string(p50s.size()) + " sub-legs; median p50 " +
               Num(open_p50) + " us, median p99 " + Num(Median(p99s)) +
               " us; inserts " + std::to_string(ins.n) + " samples p50 " +
               Num(ins.p50) + " us p99 " + Num(ins.p99) + " us" +
               (ins.p99_supported ? "" : " (p99 unsupported)"));
  report->Line("rebuilds " + std::to_string(rebuilds) + " over " +
               std::to_string(inserts_total) + " inserts");

  if (cfg.trace) {
    std::vector<double> lags;
    SpanLog log(open.records.empty() ? Clock::now() : open.records[0].scheduled);
    double e2e_sum = 0.0, lag_sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < open.records.size(); ++i) {
      const Record& r = open.records[i];
      lags.push_back(MicrosBetween(r.scheduled, r.sent));
      if (!r.ok || r.insert) continue;
      const int32_t root = log.Add(i, "request", -1, r.scheduled, r.received);
      log.Add(i, "load.send_lag", root, r.scheduled, r.sent);
      log.Add(i, "wire+server", root, r.sent, r.received);
      e2e_sum += MicrosBetween(r.scheduled, r.received);
      lag_sum += MicrosBetween(r.scheduled, r.sent);
      ++n;
    }
    const double e2e = n > 0 ? e2e_sum / static_cast<double>(n) : 0.0;
    const double lag = n > 0 ? lag_sum / static_cast<double>(n) : 0.0;
    const double server_mean = server_leg.Mean();
    const double server_p50 = static_cast<double>(server_leg.Quantile(0.5));

    // Cache lookup cost, replayed after the legs so the hit ratio above is
    // the traffic's own: the key rendering plus the lookup, per query.
    double lookup_us = 0.0;
    {
      simsel::DynamicSelector::Snapshot snap = serving.selector().snapshot();
      simsel::serve::CachedResult cached;
      const Clock::time_point t0 = Clock::now();
      for (const std::string& text : pools.queries) {
        simsel::PreparedQuery pq = snap.Prepare(text);
        std::string key = simsel::serve::ResultCache::MakeKey(
            pq, simsel::internal::ClampTau(kTau), kKind, {},
            serving.selector().disk_mode(), snap.main().measure().name());
        cache->Lookup(key, snap.version(), &cached);
      }
      lookup_us = MicrosBetween(t0, Clock::now()) /
                  static_cast<double>(pools.queries.size());
    }

    report->Set("serve.cache_lookup_us", lookup_us);
    report->Set("serve.cache_hit_ratio",
                hits + misses > 0 ? static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0.0);
    report->Set("serve.server_p99_us",
                static_cast<double>(server_leg.Quantile(0.99)));
    report->Set("serve.wire_queue_us", open_p50 - server_p50);
    const double sent = static_cast<double>(open.records.size());
    report->Set("serve.shed_ratio",
                sent > 0 ? static_cast<double>(open.shed) / sent : 0.0);
    report->Set("core.delta_size_mean",
                delta_samples > 0 ? delta_sum / delta_samples : 0.0);
    report->Set("core.rebuilds_per_1k_inserts",
                inserts_total > 0 ? 1000.0 * static_cast<double>(rebuilds) /
                                        static_cast<double>(inserts_total)
                                  : 0.0);
    report->Set("load.send_lag_p99_us", Summarize(lags).p99);
    report->Set("trace.e2e_us", e2e);
    report->Set("trace.layer_sum_us", lag + server_mean);
    report->Set("trace.remainder_us", e2e - lag - server_mean);
    report->Set("trace.overhead_us", open_p50 - untraced_p50);
    report->Line("tracing overhead: traced p50 " + Num(open_p50) +
                 " us - untraced p50 " + Num(untraced_p50) + " us");
    report->Line("layer time per query (us): load.send_lag " + Num(lag) +
                 ", serve.server (mean, all requests) " + Num(server_mean) +
                 "; sum " + Num(lag + server_mean) + " vs end to end " +
                 Num(e2e) + "; remainder (wire + client queueing) " +
                 Num(e2e - lag - server_mean));
    report->Section(
        "layers",
        JsonObject({{"load.send_lag_us", Num(lag)},
                    {"serve.server_us", Num(server_mean)},
                    {"layer_sum_us", Num(lag + server_mean)},
                    {"e2e_us", Num(e2e)},
                    {"remainder_us", Num(e2e - lag - server_mean)}}));
    if (!WriteSpans(log, *report)) report->Line("warning: span dump failed");
  }

  report->Section(
      "sizes",
      JsonObject({{"records", std::to_string(words.size())},
                  {"input_bytes", std::to_string(input_bytes)},
                  {"query_pool", std::to_string(pools.queries.size())},
                  {"insert_pool", std::to_string(pools.inserts.size())},
                  {"cache_capacity_bytes", std::to_string(kCacheBytes)},
                  {"cache_resident_bytes", std::to_string(cache->size_bytes())},
                  {"cache_entries", std::to_string(cache->entries())},
                  {"connections", std::to_string(kConnections)},
                  {"client_threads_open_loop", std::to_string(2 * kConnections)},
                  {"server_workers", std::to_string(kServerWorkers)},
                  {"rebuild_threads", std::to_string(kRebuildThreads)},
                  {"rebuild_threshold", std::to_string(kRebuildThreshold)},
                  {"open_rate_per_s", Num(kOpenRate)},
                  {"closed_loop_in_flight_per_connection",
                   std::to_string(kWindow)},
                  {"loop", JsonString("closed x2 connections, then open at "
                                      "a fixed rate x2 connections")}}));
}

}  // namespace simbench
