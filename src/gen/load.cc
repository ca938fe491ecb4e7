#include "gen/load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "gen/zipf.h"
#include "serve/server.h"

namespace simsel::load {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool NextToken(std::string_view* rest, std::string_view* token) {
  size_t space = rest->find(' ');
  if (space == std::string_view::npos) {
    *token = *rest;
    *rest = std::string_view();
  } else {
    *token = rest->substr(0, space);
    *rest = rest->substr(space + 1);
  }
  return !token->empty();
}

// A number off the wire is the whole token: no whitespace, no '+', no sign
// on a count or id, and no byte after it (a NUL included).
template <class T>
bool ParseNumber(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && stop == end;
}

uint64_t MicrosSince(Clock::time_point from, Clock::time_point to) {
  auto d = std::chrono::duration_cast<std::chrono::microseconds>(to - from);
  return d.count() > 0 ? static_cast<uint64_t>(d.count()) : 0;
}

/// Shared workload state: which request a thread issues next.
struct RequestPicker {
  const LoadOptions& options;
  ZipfSampler zipf;
  Rng rng;
  size_t insert_cursor;

  RequestPicker(const LoadOptions& opts, size_t thread_index)
      : options(opts),
        zipf(opts.queries->empty() ? 1 : opts.queries->size(),
             opts.zipf_skew),
        rng(opts.seed * 0x9E3779B97F4A7C15ull + thread_index + 1),
        insert_cursor(thread_index) {}

  /// Formats the next request line; true when it is an insert.
  bool Next(const std::string& request_id, std::string* line) {
    bool is_insert = options.insert_fraction > 0.0 &&
                     options.inserts != nullptr && !options.inserts->empty() &&
                     rng.NextBernoulli(options.insert_fraction);
    if (is_insert) {
      const std::vector<std::string>& pool = *options.inserts;
      *line = FormatInsert(request_id, options.tenant,
                           pool[insert_cursor % pool.size()]);
      insert_cursor += options.num_connections;
      return true;
    }
    const std::vector<std::string>& pool = *options.queries;
    size_t rank = zipf.Sample(&rng) % pool.size();
    *line = FormatQuery(request_id, options.tenant, options.tau, options.kind,
                        pool[rank]);
    return false;
  }
};

void Classify(const Response& r, LoadStats* stats) {
  switch (r.kind) {
    case Response::Kind::kOk:
      ++stats->ok;
      break;
    case Response::Kind::kPartial:
      ++stats->partial;
      break;
    case Response::Kind::kShed:
      ++stats->shed;
      break;
    case Response::Kind::kInsert:
      ++stats->ok;
      ++stats->inserts_acked;
      break;
    case Response::Kind::kPong:
      break;
    case Response::Kind::kError:
      ++stats->errors;
      break;
  }
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::Internal(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host \"" + host + "\"");
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Unavailable(Errno("connect"));
    Close();
    return st;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Status Client::SendLine(std::string_view line) {
  if (fd_ < 0) return Status::Internal("not connected");
  std::string framed(line);
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n =
        send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(Errno("send"));
  }
  return Status::Ok();
}

Status Client::ReadLine(std::string* line) {
  if (fd_ < 0) return Status::Internal("not connected");
  while (true) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return Status::Ok();
    }
    char chunk[4096];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Unavailable("connection closed by server");
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("recv"));
  }
}

Status Client::ReadLine(std::string* line, int timeout_ms, bool* timed_out) {
  *timed_out = false;
  if (fd_ < 0) return Status::Internal("not connected");
  while (true) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return Status::Ok();
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int ready = poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      *timed_out = true;
      return Status::Unavailable("recv timed out");
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("poll"));
    }
    char chunk[4096];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Unavailable("connection closed by server");
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("recv"));
  }
}

std::string FormatQuery(std::string_view request_id, std::string_view tenant,
                        double tau, AlgorithmKind kind,
                        std::string_view text) {
  char head[128];
  std::snprintf(head, sizeof(head), "%.*s Q %.*s %.17g %s ",
                static_cast<int>(request_id.size()), request_id.data(),
                static_cast<int>(tenant.size()), tenant.data(), tau,
                serve::AlgoToken(kind));
  return std::string(head) + std::string(text);
}

std::string FormatInsert(std::string_view request_id, std::string_view tenant,
                         std::string_view text) {
  std::string line(request_id);
  line += " I ";
  line += tenant;
  line += ' ';
  line += text;
  return line;
}

bool ParseResponse(std::string_view line, Response* out) {
  *out = Response();
  std::string_view rest = line;
  std::string_view id, kind;
  if (!NextToken(&rest, &id) || !NextToken(&rest, &kind)) return false;
  out->request_id = std::string(id);
  if (kind == "SHED") {
    out->kind = Response::Kind::kShed;
    return true;
  }
  if (kind == "PONG") {
    out->kind = Response::Kind::kPong;
    return true;
  }
  if (kind == "ERR") {
    out->kind = Response::Kind::kError;
    out->reason = std::string(rest);
    return true;
  }
  if (kind == "INS") {
    std::string_view sid, sversion;
    if (!NextToken(&rest, &sid) || !NextToken(&rest, &sversion)) return false;
    if (!ParseNumber(sid, &out->insert_id) ||
        !ParseNumber(sversion, &out->version)) {
      return false;
    }
    out->kind = Response::Kind::kInsert;
    return true;
  }
  if (kind == "PARTIAL") {
    std::string_view reason;
    if (!NextToken(&rest, &reason)) return false;
    out->reason = std::string(reason);
    out->kind = Response::Kind::kPartial;
  } else if (kind == "OK") {
    out->kind = Response::Kind::kOk;
  } else {
    return false;
  }
  std::string_view sversion, scount;
  if (!NextToken(&rest, &sversion) || !NextToken(&rest, &scount)) return false;
  uint64_t count = 0;
  if (!ParseNumber(sversion, &out->version) || !ParseNumber(scount, &count)) {
    return false;
  }
  // Each pair takes at least 3 bytes ("1:2") plus a separator, so a count
  // the rest of the line cannot hold is rejected before it sizes anything:
  // the count comes straight off the wire.
  if (count > (rest.size() + 1) / 4) return false;
  out->matches.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view pair;
    if (!NextToken(&rest, &pair)) return false;
    size_t colon = pair.find(':');
    if (colon == std::string_view::npos) return false;
    Response::ScoredId m;
    if (!ParseNumber(pair.substr(0, colon), &m.id)) return false;
    if (!ParseNumber(pair.substr(colon + 1), &m.score)) return false;
    out->matches.push_back(m);
  }
  return rest.empty() && out->matches.size() == count;
}

void LoadStats::Merge(const LoadStats& other) {
  sent += other.sent;
  ok += other.ok;
  partial += other.partial;
  shed += other.shed;
  errors += other.errors;
  inserts_acked += other.inserts_acked;
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  latency_usec.Merge(other.latency_usec);
}

LoadStats RunClosedLoop(const LoadOptions& options) {
  SIMSEL_CHECK_MSG(options.queries != nullptr && !options.queries->empty(),
                   "closed loop needs a query pool");
  size_t threads = std::max<size_t>(1, options.num_connections);
  std::vector<LoadStats> per_thread(threads);
  std::vector<std::unique_ptr<obs::Histogram>> hists;
  for (size_t i = 0; i < threads; ++i) {
    hists.push_back(std::make_unique<obs::Histogram>());
  }
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoadStats& stats = per_thread[t];
      Client client;
      if (!client.Connect(options.host, options.port).ok()) {
        stats.errors += options.requests_per_connection;
        return;
      }
      RequestPicker picker(options, t);
      std::string line, resp_line;
      Response resp;
      for (size_t k = 0; k < options.requests_per_connection; ++k) {
        std::string rid = std::to_string(t) + "-" + std::to_string(k);
        picker.Next(rid, &line);
        Clock::time_point sent_at = Clock::now();
        if (!client.SendLine(line).ok()) {
          ++stats.errors;
          return;
        }
        ++stats.sent;
        if (!client.ReadLine(&resp_line).ok()) {
          ++stats.errors;
          return;
        }
        hists[t]->Observe(MicrosSince(sent_at, Clock::now()));
        if (!ParseResponse(resp_line, &resp) || resp.request_id != rid) {
          ++stats.errors;
          continue;
        }
        Classify(resp, &stats);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  LoadStats total;
  for (size_t t = 0; t < threads; ++t) {
    per_thread[t].wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    per_thread[t].latency_usec = hists[t]->Snapshot();
    total.Merge(per_thread[t]);
  }
  return total;
}

LoadStats RunOpenLoop(const LoadOptions& options) {
  SIMSEL_CHECK_MSG(options.queries != nullptr && !options.queries->empty(),
                   "open loop needs a query pool");
  SIMSEL_CHECK_MSG(options.rate_per_sec > 0 && options.total_requests > 0,
                   "open loop needs rate_per_sec and total_requests");
  size_t conns = std::max<size_t>(1, options.num_connections);
  double per_conn_rate = options.rate_per_sec / static_cast<double>(conns);
  auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_conn_rate));
  std::vector<LoadStats> per_conn(conns);
  std::vector<std::unique_ptr<obs::Histogram>> hists;
  for (size_t i = 0; i < conns; ++i) {
    hists.push_back(std::make_unique<obs::Histogram>());
  }
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (size_t c = 0; c < conns; ++c) {
    size_t quota = options.total_requests / conns +
                   (c < options.total_requests % conns ? 1 : 0);
    pool.emplace_back([&, c, quota] {
      LoadStats& stats = per_conn[c];
      Client client;
      if (!client.Connect(options.host, options.port).ok() || quota == 0) {
        stats.errors += quota;
        return;
      }
      // Scheduled departure times: request k leaves at start + k/rate even
      // when earlier responses are outstanding — that pipelining is what
      // "open loop" means, and latency is charged from the schedule so a
      // slow server cannot hide queueing delay (coordinated omission).
      std::mutex mu;
      std::unordered_map<std::string, Clock::time_point> departed;
      std::atomic<size_t> sent_ok{0};
      std::atomic<bool> sender_done{false};
      std::thread reader([&] {
        std::string line;
        Response resp;
        size_t received = 0;
        while (true) {
          if (sender_done.load(std::memory_order_acquire) &&
              received >= sent_ok.load(std::memory_order_acquire)) {
            break;
          }
          // A plain blocking read here can hang forever: after the final
          // response is consumed, the reader may re-check before the sender
          // has stored sender_done (it is preempted between send() and the
          // store), see "not done", and block in recv with no response left
          // to wake it. The timed read turns that race into a 50 ms spin
          // around the exit condition.
          bool timed_out = false;
          if (!client.ReadLine(&line, 50, &timed_out).ok()) {
            if (timed_out) continue;
            size_t expect = sent_ok.load(std::memory_order_acquire);
            stats.errors += expect > received ? expect - received : 0;
            return;
          }
          ++received;
          if (!ParseResponse(line, &resp)) {
            ++stats.errors;
            continue;
          }
          Clock::time_point scheduled;
          bool known = false;
          {
            std::lock_guard<std::mutex> lock(mu);
            auto it = departed.find(resp.request_id);
            if (it != departed.end()) {
              scheduled = it->second;
              known = true;
              departed.erase(it);
            }
          }
          if (known) {
            hists[c]->Observe(MicrosSince(scheduled, Clock::now()));
          }
          Classify(resp, &stats);
        }
      });
      RequestPicker picker(options, c);
      std::string line;
      for (size_t k = 0; k < quota; ++k) {
        Clock::time_point scheduled = start + interval * (k + 1);
        std::this_thread::sleep_until(scheduled);
        std::string rid = std::to_string(c) + "-" + std::to_string(k);
        picker.Next(rid, &line);
        {
          std::lock_guard<std::mutex> lock(mu);
          departed.emplace(rid, scheduled);
        }
        if (!client.SendLine(line).ok()) {
          ++stats.errors;
          {
            std::lock_guard<std::mutex> lock(mu);
            departed.erase(rid);
          }
          break;
        }
        ++stats.sent;
        sent_ok.fetch_add(1, std::memory_order_release);
      }
      sender_done.store(true, std::memory_order_release);
      reader.join();
    });
  }
  for (std::thread& th : pool) th.join();
  LoadStats total;
  for (size_t c = 0; c < conns; ++c) {
    per_conn[c].wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    per_conn[c].latency_usec = hists[c]->Snapshot();
    total.Merge(per_conn[c]);
  }
  return total;
}

}  // namespace simsel::load
