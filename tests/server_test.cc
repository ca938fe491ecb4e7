// Integration tests for the network serving front end (serve/server.h)
// against live loopback sockets, using the src/gen/load.h client. Runs
// under the TSAN `concurrency` ctest label: the interesting properties are
// cross-thread (admission accounting, drain visibility, worker/IO flush
// rendezvous), so every test here doubles as a race detector target.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gen/load.h"
#include "serve/dynamic_serving.h"
#include "serve/server.h"
#include "test_util.h"

namespace simsel {
namespace {

using load::Client;
using load::Response;
using serve::DynamicServing;
using serve::DynamicServingOptions;
using serve::Server;
using serve::ServerOptions;
using testing_util::MakeQueries;
using testing_util::MakeWordRecords;

// A dynamic back end whose main part spans `segments` segments; `pool`
// (may be null) runs the fan-out and rebuilds.
DynamicServingOptions SmallServe(size_t segments, ThreadPool* pool = nullptr) {
  DynamicServingOptions o;
  o.build.num_segments = segments;
  o.build.tokenizer.q = 3;
  o.build.index.page_bytes = 512;
  o.pool = pool;
  return o;
}

Response RoundTrip(Client* client, const std::string& line) {
  EXPECT_TRUE(client->SendLine(line).ok());
  std::string reply;
  EXPECT_TRUE(client->ReadLine(&reply).ok());
  Response r;
  EXPECT_TRUE(load::ParseResponse(reply, &r)) << reply;
  return r;
}

// The wire answer must be the direct in-process answer, byte for byte:
// same ids in the same order, and scores whose parsed doubles are
// bit-identical to the server-side doubles (%.17g round-trip).
TEST(ServerTest, ResultsAreByteIdenticalToDirectSelector) {
  std::vector<std::string> records = MakeWordRecords(120, 7);
  ThreadPool pool(2);
  DynamicServing serving(records, SmallServe(3, &pool));
  Server server(&serving, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::string> queries = MakeQueries(records, 8, 99);
  int checked = 0;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSf, AlgorithmKind::kInra, AlgorithmKind::kHybrid}) {
    for (const std::string& q : queries) {
      for (double tau : {0.5, 0.8}) {
        QueryResult direct = serving.Select(q, tau, kind);
        Response r = RoundTrip(
            &client, load::FormatQuery("q", "-", tau, kind, q));
        ASSERT_EQ(r.kind, Response::Kind::kOk) << r.reason;
        EXPECT_EQ(r.version, direct.snapshot_version);
        ASSERT_EQ(r.matches.size(), direct.matches.size());
        for (size_t i = 0; i < r.matches.size(); ++i) {
          EXPECT_EQ(r.matches[i].id, direct.matches[i].id);
          // Exact double equality on purpose: %.17g makes the round trip
          // lossless, so any difference is a serving-path bug.
          EXPECT_EQ(r.matches[i].score, direct.matches[i].score);
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3 * 8 * 2);
  Response pong = RoundTrip(&client, "p PING");
  EXPECT_EQ(pong.kind, Response::Kind::kPong);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.error_count(), 0u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServerTest, TenantBudgetsYieldPartialWithBudgetReason) {
  std::vector<std::string> records = MakeWordRecords(150, 21);
  DynamicServing serving(records, SmallServe(2));
  ServerOptions so;
  so.tenant_budgets["metered"] = 1;  // trips on the first element read
  Server server(&serving, so);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::string query = records[11];
  Response metered = RoundTrip(
      &client,
      load::FormatQuery("m", "metered", 0.5, AlgorithmKind::kSf, query));
  EXPECT_EQ(metered.kind, Response::Kind::kPartial);
  EXPECT_EQ(metered.reason, "budget");
  // The anonymous tenant has no budget and completes normally.
  Response anon = RoundTrip(
      &client, load::FormatQuery("a", "-", 0.5, AlgorithmKind::kSf, query));
  EXPECT_EQ(anon.kind, Response::Kind::kOk);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.partial_count(), 1u);
  EXPECT_EQ(server.ok_count(), 1u);
}

TEST(ServerTest, MalformedLinesGetErrNotDisconnect) {
  std::vector<std::string> records = MakeWordRecords(40, 3);
  DynamicServing serving(records, SmallServe(2));
  Server server(&serving, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const char* bad :
       {"x Q - notanumber sf hello", "y Q - 0.5 nosuchalgo hello",
        "z WHAT"}) {
    Response r = RoundTrip(&client, bad);
    EXPECT_EQ(r.kind, Response::Kind::kError) << bad;
  }
  // The connection survives garbage: a well-formed request still works.
  Response ok = RoundTrip(
      &client,
      load::FormatQuery("k", "-", 0.5, AlgorithmKind::kSf, records[0]));
  EXPECT_EQ(ok.kind, Response::Kind::kOk);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.error_count(), 3u);
}

// A pipelined burst far past max_queue must shed (distinct SHED status,
// counted), and every request still gets exactly one response.
TEST(ServerTest, OverloadShedsAtTheQueueBound) {
  std::vector<std::string> records = MakeWordRecords(200, 13);
  DynamicServing serving(records, SmallServe(2));
  ServerOptions so;
  so.num_workers = 1;
  so.max_queue = 4;
  Server server(&serving, so);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kBurst = 60;
  // kLinearScan is the slowest algorithm — it keeps the single worker busy
  // so the burst piles into admission instead of draining instantly.
  for (int i = 0; i < kBurst; ++i) {
    std::string id = "b";
    id += std::to_string(i);
    ASSERT_TRUE(client
                    .SendLine(load::FormatQuery(id, "-", 0.5,
                                                AlgorithmKind::kLinearScan,
                                                records[i % 20]))
                    .ok());
  }
  uint64_t ok = 0, shed = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string reply;
    ASSERT_TRUE(client.ReadLine(&reply).ok());
    Response r;
    ASSERT_TRUE(load::ParseResponse(reply, &r)) << reply;
    if (r.kind == Response::Kind::kShed) {
      ++shed;
    } else if (r.kind == Response::Kind::kOk) {
      ++ok;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(other, 0u);
  EXPECT_EQ(ok + shed, static_cast<uint64_t>(kBurst));
  // The whole burst lands while the first queries still execute, so with
  // max_queue=4 most of it must shed.
  EXPECT_GT(shed, 0u);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.shed_count(), shed);
  EXPECT_EQ(server.ok_count(), ok);
  EXPECT_EQ(server.queue_depth(), 0u);
}

// Graceful drain: requests pipelined before/around RequestStop all get a
// response (OK or ERR draining) before the server closes the connection —
// none vanish — and the system drains to zero depth.
TEST(ServerTest, DrainAnswersEveryInFlightRequest) {
  std::vector<std::string> records = MakeWordRecords(120, 31);
  DynamicServing serving(records, SmallServe(2));
  ServerOptions so;
  so.num_workers = 2;
  so.max_queue = 0;  // unlimited: admission must not mask drops
  Server server(&serving, so);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  constexpr int kPerClient = 25;
  std::atomic<int> connected{0};
  std::atomic<uint64_t> answered{0}, ok{0}, draining_errs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      for (int i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE(client
                        .SendLine(load::FormatQuery(
                            std::to_string(t) + "-" + std::to_string(i), "-",
                            0.5, AlgorithmKind::kSf, records[(t * 7 + i) % 40]))
                        .ok());
      }
      auto consume = [&](const std::string& reply) {
        Response r;
        ASSERT_TRUE(load::ParseResponse(reply, &r)) << reply;
        answered.fetch_add(1);
        if (r.kind == Response::Kind::kOk) ok.fetch_add(1);
        if (r.kind == Response::Kind::kError) {
          EXPECT_EQ(r.reason.substr(0, 8), "draining");
          draining_errs.fetch_add(1);
        }
      };
      // Read the first response before signaling readiness: Connect()
      // completing only proves the kernel finished the handshake off the
      // listen backlog — on one core the I/O thread may not have run
      // accept4 yet, and a drain started then would close the listen socket
      // and quiesce before ever parsing this client's burst. One answered
      // line proves the server owns the connection and is mid-pipeline.
      std::string reply;
      ASSERT_TRUE(client.ReadLine(&reply).ok());
      consume(reply);
      connected.fetch_add(1);
      // The server flushes every buffered response before closing, so
      // everything it generated for this connection is readable even after
      // drain completes. Lines the drain quiesced *before parsing* (still in
      // the kernel buffer) legitimately get no response — the socket just
      // hits EOF — so read until EOF, not until kPerClient.
      for (int i = 1; i < kPerClient; ++i) {
        if (!client.ReadLine(&reply).ok()) break;
        consume(reply);
      }
    });
  }
  // Stop mid-flight — but only after every client has read one response,
  // proving its connection is accepted and its pipeline is being answered.
  // Some requests are already admitted, some still in socket buffers (those
  // get ERR draining, or no response if never parsed); if the burst happens
  // to finish first, the test still holds with zero draining errors.
  while (connected.load() < kClients) std::this_thread::yield();
  server.RequestStop();
  for (std::thread& t : threads) t.join();
  server.Join();

  // Every request the server parsed got exactly one response (admitted →
  // OK, post-drain → ERR draining), every generated response reached a
  // client before the socket closed, and the system drained to zero depth.
  EXPECT_GE(answered.load(), static_cast<uint64_t>(kClients));
  EXPECT_LE(answered.load(), static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(ok.load() + draining_errs.load(), answered.load());
  EXPECT_EQ(server.queue_depth(), 0u);
  // Tallies reconcile with what the clients saw: nothing generated was lost.
  EXPECT_EQ(server.ok_count(), ok.load());
  EXPECT_EQ(server.error_count(), draining_errs.load());
}

// Overload SLO: drive an open-loop arrival process well past capacity at a
// dynamic-backed server with a deadline. The server must shed at the bound
// and the *admitted* p99 (arrival to response, server side) must stay
// within the deadline SLO — queue wait counts against the budget, so
// nothing admitted can linger much past deadline_ms.
TEST(ServerTest, AdmittedP99StaysWithinDeadlineUnderOverload) {
  std::vector<std::string> records = MakeWordRecords(300, 17);
  ThreadPool rebuild_pool(1);
  serve::DynamicServingOptions dso;
  dso.cache_bytes = 0;  // no result cache: every query does real work
  dso.rebuild_threshold = 1u << 20;
  dso.pool = &rebuild_pool;
  serve::DynamicServing serving(records, dso);

  ServerOptions so;
  so.num_workers = 2;
  so.max_queue = 8;
  so.deadline_ms = 200;
  Server server(&serving, so);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> queries = MakeQueries(records, 12, 5);
  std::vector<std::string> inserts = MakeWordRecords(40, 77);
  load::LoadOptions lo;
  lo.port = server.port();
  lo.num_connections = 2;
  lo.queries = &queries;
  lo.inserts = &inserts;
  lo.insert_fraction = 0.1;
  lo.tau = 0.5;
  lo.kind = AlgorithmKind::kLinearScan;  // slow on purpose
  lo.seed = 5;

  // Measure capacity closed-loop, then offer 4x that rate open-loop.
  lo.requests_per_connection = 30;
  load::LoadStats closed = load::RunClosedLoop(lo);
  ASSERT_EQ(closed.errors, 0u);
  lo.rate_per_sec = std::max(200.0, closed.throughput_rps() * 4.0);
  lo.total_requests = 300;
  load::LoadStats open = load::RunOpenLoop(lo);
  EXPECT_EQ(open.errors, 0u);
  EXPECT_EQ(open.ok + open.partial + open.shed, open.sent);

  server.Shutdown();
  EXPECT_EQ(server.queue_depth(), 0u);
  // At 4x capacity with max_queue=8 the bound must have been hit.
  EXPECT_GT(server.shed_count(), 0u);
  // The SLO assertion proper. Slack covers scheduler jitter on a loaded
  // single-core/TSAN host: the invariant under test is "bounded by the
  // deadline, not by the queue", and an unbounded queue would blow far past
  // this at 4x overload.
  obs::HistogramSnapshot lat = server.latency_snapshot();
  ASSERT_GT(lat.count, 0u);
  const double slo_usec = static_cast<double>(so.deadline_ms) * 1000.0;
  EXPECT_LE(lat.Quantile(0.99), slo_usec + 300'000.0);
}

// Every server accepts inserts, whatever the segment count: a record
// inserted over the wire into a three-segment back end is found by the next
// query, and each wire answer equals the in-process answer at the same
// version byte for byte.
TEST(ServerTest, WireInsertsIntoThreeSegmentsAreVisibleToTheNextQuery) {
  std::vector<std::string> records = MakeWordRecords(150, 41);
  // Copies of indexed records: tokens the frozen dictionary has never seen
  // cannot match, so a copy is what a query is sure to find in the delta.
  std::vector<std::string> inserts;
  for (size_t i = 0; i < 12; ++i) inserts.push_back(records[i * 11]);
  ThreadPool pool(2);
  DynamicServing serving(records, SmallServe(3, &pool));
  ASSERT_EQ(serving.selector().snapshot().main().num_segments(), 3u);
  Server server(&serving, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (size_t i = 0; i < inserts.size(); ++i) {
    Response ins = RoundTrip(
        &client, load::FormatInsert("i" + std::to_string(i), "-", inserts[i]));
    ASSERT_EQ(ins.kind, Response::Kind::kInsert) << ins.reason;
    EXPECT_EQ(ins.insert_id, records.size() + i);
    EXPECT_EQ(ins.version, serving.version());
    for (AlgorithmKind kind : {AlgorithmKind::kSf, AlgorithmKind::kInra,
                               AlgorithmKind::kLinearScan}) {
      Response r = RoundTrip(
          &client, load::FormatQuery("q", "-", 0.8, kind, inserts[i]));
      ASSERT_EQ(r.kind, Response::Kind::kOk) << r.reason;
      bool found = false;
      for (const Response::ScoredId& m : r.matches) {
        found |= m.id == ins.insert_id;
      }
      EXPECT_TRUE(found) << "insert " << i << " not visible";
      // No writer runs between the wire query and this one, so both answer
      // at one version.
      QueryResult direct = serving.Select(inserts[i], 0.8, kind);
      ASSERT_EQ(r.version, direct.snapshot_version);
      ASSERT_EQ(r.matches.size(), direct.matches.size());
      for (size_t m = 0; m < r.matches.size(); ++m) {
        EXPECT_EQ(r.matches[m].id, direct.matches[m].id);
        EXPECT_EQ(r.matches[m].score, direct.matches[m].score);
      }
    }
  }
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.insert_count(), inserts.size());
  EXPECT_EQ(server.error_count(), 0u);
}

// Hostile input to the request-line parser: seeded byte mutations of valid
// Q, I and PING lines — flipped, inserted and deleted bytes, NULs, carriage
// returns, runs of spaces, 300-digit taus — pipelined over one connection.
// The server must answer every non-empty line exactly once, count every ERR
// it sends, and still answer PING afterwards.
TEST(ServerTest, MutatedRequestLinesGetOneResponseEach) {
  std::vector<std::string> records = MakeWordRecords(60, 47);
  DynamicServing serving(records, SmallServe(2));
  ServerOptions so;
  so.max_queue = 0;  // no SHED: every admitted line executes
  Server server(&serving, so);
  ASSERT_TRUE(server.Start().ok());

  std::mt19937 rng(20261019);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
  };
  const std::string digits300 = "1" + std::string(299, '0');
  const std::string tiny300 = "0." + std::string(297, '0') + "1";
  const char kSpecial[] = {'\0', '\r', ' ', '\t', '\x7f', '\xff', 'Q', 'I'};
  std::vector<std::string> lines;
  for (int i = 0; i < 400; ++i) {
    std::string line;
    switch (i % 4) {
      case 0:
        line = load::FormatQuery("q" + std::to_string(i), "-", 0.6,
                                 AlgorithmKind::kSf, records[pick(60)]);
        break;
      case 1:
        line = load::FormatInsert("i" + std::to_string(i), "-",
                                  records[pick(60)]);
        break;
      case 2:
        line = "p" + std::to_string(i) + " PING";
        break;
      default:
        line = "t" + std::to_string(i) + " Q - " +
               (pick(2) == 0 ? digits300 : tiny300) + " sf " +
               records[pick(60)];
        break;
    }
    const size_t edits = 1 + pick(3);
    for (size_t e = 0; e < edits; ++e) {
      const size_t at = pick(line.size() + 1);
      switch (pick(4)) {
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
        default:  // run of spaces
          line.insert(at, 1 + pick(6), ' ');
          break;
      }
    }
    // A newline would split the line in two; keep the framing ours.
    for (char& c : line) {
      if (c == '\n') c = '\0';
    }
    lines.push_back(std::move(line));
  }

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  size_t expected = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(client.SendLine(line).ok());
    // The server strips one trailing '\r' and ignores empty lines.
    const size_t body =
        !line.empty() && line.back() == '\r' ? line.size() - 1 : line.size();
    expected += body > 0;
  }
  uint64_t errors = 0;
  for (size_t i = 0; i < expected; ++i) {
    std::string reply;
    bool timed_out = false;
    ASSERT_TRUE(client.ReadLine(&reply, 30000, &timed_out).ok())
        << "response " << i << " of " << expected
        << (timed_out ? " timed out" : " failed");
    const size_t space = reply.find(' ');
    ASSERT_NE(space, std::string::npos) << reply;
    errors += reply.compare(space + 1, 4, "ERR ") == 0;
  }
  Response pong = RoundTrip(&client, "last PING");
  EXPECT_EQ(pong.kind, Response::Kind::kPong);
  client.Close();
  server.Shutdown();
  EXPECT_GT(errors, 0u);
  EXPECT_EQ(server.error_count(), errors);
  EXPECT_EQ(server.queue_depth(), 0u);
}

}  // namespace
}  // namespace simsel
