#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace simsel::serve {

namespace {

/// Per-connection input cap: a single request line beyond this is a client
/// bug (the longest legitimate line is a query text), answered with ERR and
/// a close rather than unbounded buffering.
constexpr size_t kMaxLineBytes = 1u << 20;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Splits the leading space-delimited token off `rest`. Empty tokens never
/// occur (consecutive separators yield an empty token -> caller rejects).
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

/// One line, newlines stripped, so a Status message can never break the
/// one-response-per-line framing.
std::string Sanitize(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

bool ParseAlgoName(std::string_view name, AlgorithmKind* kind) {
  if (name == "sf") *kind = AlgorithmKind::kSf;
  else if (name == "inra") *kind = AlgorithmKind::kInra;
  else if (name == "hybrid") *kind = AlgorithmKind::kHybrid;
  else if (name == "ita") *kind = AlgorithmKind::kIta;
  else if (name == "ta") *kind = AlgorithmKind::kTa;
  else if (name == "nra") *kind = AlgorithmKind::kNra;
  else if (name == "sortbyid") *kind = AlgorithmKind::kSortById;
  else if (name == "pf") *kind = AlgorithmKind::kPrefixFilter;
  else if (name == "scan") *kind = AlgorithmKind::kLinearScan;
  else return false;
  return true;
}

const char* AlgoToken(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSf: return "sf";
    case AlgorithmKind::kInra: return "inra";
    case AlgorithmKind::kHybrid: return "hybrid";
    case AlgorithmKind::kIta: return "ita";
    case AlgorithmKind::kTa: return "ta";
    case AlgorithmKind::kNra: return "nra";
    case AlgorithmKind::kSortById: return "sortbyid";
    case AlgorithmKind::kPrefixFilter: return "pf";
    case AlgorithmKind::kLinearScan: return "scan";
    case AlgorithmKind::kSql: return "sql";
  }
  return "unknown";
}

/// All fields except `out`/`closed` are I/O-thread-only. `out` and `closed`
/// are the worker/I/O rendezvous, guarded by `mu`; once `closed` is set no
/// append lands (a worker finishing after a disconnect is a no-op).
struct Server::Conn {
  int fd = -1;
  std::string in;  // I/O thread only
  bool want_write = false;  // I/O thread only: EPOLLOUT armed

  std::mutex mu;
  std::string out;
  bool closed = false;
};

struct Server::Request {
  std::string id;
  char verb = 'Q';
  std::string tenant;
  double tau = 0.0;
  AlgorithmKind kind = AlgorithmKind::kSf;
  std::string text;
  std::chrono::steady_clock::time_point arrival;
};

Server::Server(DynamicServing* backend, const ServerOptions& options)
    : backend_(backend), options_(options) {
  SIMSEL_CHECK_MSG(backend_ != nullptr, "a server needs a back end");
  if (options_.num_workers == 0) options_.num_workers = 1;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  queue_depth_metric_ = reg.GetGauge("simsel_server_queue_depth");
  conns_metric_ = reg.GetGauge("simsel_server_active_connections");
  inserts_metric_ = reg.GetCounter("simsel_server_inserts_total");
  latency_metric_ = reg.GetHistogram("simsel_server_request_usec");
  outcome_ok_metric_ = reg.GetCounter("simsel_server_requests_total",
                                      obs::LabelPair("outcome", "ok"));
  outcome_partial_metric_ = reg.GetCounter(
      "simsel_server_requests_total", obs::LabelPair("outcome", "partial"));
  outcome_shed_metric_ = reg.GetCounter("simsel_server_requests_total",
                                        obs::LabelPair("outcome", "shed"));
  outcome_error_metric_ = reg.GetCounter("simsel_server_requests_total",
                                         obs::LabelPair("outcome", "error"));
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  SIMSEL_CHECK_MSG(!running_.load(std::memory_order_acquire),
                   "Start called twice");
  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.listen_addr.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address \"" +
                                   options_.listen_addr + "\"");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd_, 128) < 0) {
    Status st = Status::Internal(Errno("bind/listen"));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Status::Internal(Errno("epoll_create1/eventfd"));
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread(&Server::IoLoop, this);
  return Status::Ok();
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  // One eventfd write is the whole wake protocol precisely so a SIGTERM
  // handler can call this: write(2) is async-signal-safe, condition
  // variables and mutexes are not.
  if (wake_fd_ >= 0) {
    uint64_t n = 1;
    ssize_t ignored = write(wake_fd_, &n, sizeof(n));
    (void)ignored;
  }
}

void Server::Join() {
  if (io_thread_.joinable()) io_thread_.join();
  // The I/O loop exits only once in_system_ == 0, so the pool is idle;
  // drain mode here is belt and braces, not a wait.
  if (workers_) workers_->Shutdown(ThreadPool::ShutdownMode::kDrain);
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
}

void Server::Shutdown() {
  RequestStop();
  Join();
}

void Server::IoLoop() {
  std::vector<epoll_event> events(64);
  while (true) {
    bool draining = stop_requested_.load(std::memory_order_acquire);
    if (draining && listen_fd_ >= 0) {
      // Stop accepting the moment the drain begins; live connections keep
      // flowing until every admitted request has flushed.
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining && DrainComplete()) break;
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), draining ? 20 : 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drainv;
        while (read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      }
      if ((events[i].events & EPOLLOUT) && conns_.count(fd) != 0) {
        FlushConn(conn);
      }
    }
    std::vector<std::shared_ptr<Conn>> to_flush;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      to_flush.swap(flush_queue_);
    }
    for (const std::shared_ptr<Conn>& conn : to_flush) FlushConn(conn);
  }
  for (auto& [fd, conn] : conns_) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
      conn->out.clear();
    }
    close(fd);
    conns_metric_->Add(-1);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Server::AcceptNew() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: next event retries
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    conns_metric_->Add(1);
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[4096];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      if (conn->in.size() > kMaxLineBytes &&
          conn->in.find('\n') == std::string::npos) {
        error_n_.fetch_add(1, std::memory_order_relaxed);
        outcome_error_metric_->Increment();
        Respond(conn, "- ERR request line too long", true);
        CloseConn(conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  size_t start = 0;
  size_t nl;
  while ((nl = conn->in.find('\n', start)) != std::string::npos) {
    std::string_view line(conn->in.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    HandleLine(conn, line);
    start = nl + 1;
    bool closed;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      closed = conn->closed;
    }
    if (closed) return;  // HandleLine/Respond closed it mid-batch
  }
  conn->in.erase(0, start);
}

void Server::HandleLine(const std::shared_ptr<Conn>& conn,
                        std::string_view line) {
  if (line.empty()) return;
  std::string_view rest = line;
  std::string_view id, verb;
  if (!NextToken(&rest, &id) || !NextToken(&rest, &verb)) {
    error_n_.fetch_add(1, std::memory_order_relaxed);
    outcome_error_metric_->Increment();
    Respond(conn, "- ERR malformed request", true);
    return;
  }
  std::string sid(id);
  if (verb == "PING") {
    // Liveness stays answerable during drain and under full queues: PING is
    // never admitted, so it can neither shed nor occupy a worker.
    Respond(conn, sid + " PONG", true);
    return;
  }
  auto fail = [&](const std::string& msg) {
    error_n_.fetch_add(1, std::memory_order_relaxed);
    outcome_error_metric_->Increment();
    Respond(conn, sid + " ERR " + msg, true);
  };
  if (verb != "Q" && verb != "I") {
    fail("unknown verb \"" + std::string(verb) + "\"");
    return;
  }
  Request req;
  req.id = sid;
  req.verb = verb[0];
  req.arrival = std::chrono::steady_clock::now();
  std::string_view tenant;
  if (!NextToken(&rest, &tenant)) {
    fail("missing tenant");
    return;
  }
  req.tenant = std::string(tenant);
  if (req.verb == 'Q') {
    std::string_view tau_tok, algo_tok;
    if (!NextToken(&rest, &tau_tok) || !NextToken(&rest, &algo_tok)) {
      fail("usage: <id> Q <tenant> <tau> <algo> <text>");
      return;
    }
    std::string tau_str(tau_tok);
    char* end = nullptr;
    double tau = std::strtod(tau_str.c_str(), &end);
    if (end == tau_str.c_str() || *end != '\0' || !(tau > 0.0) ||
        tau > 100.0) {
      fail("bad tau \"" + tau_str + "\"");
      return;
    }
    req.tau = tau > 1.0 ? tau / 100.0 : tau;
    if (!ParseAlgoName(algo_tok, &req.kind)) {
      fail("unknown algorithm \"" + std::string(algo_tok) + "\"");
      return;
    }
  }
  if (rest.empty()) {
    fail("empty text");
    return;
  }
  req.text = std::string(rest);

  if (stop_requested_.load(std::memory_order_acquire)) {
    fail("draining");
    return;
  }
  // Admission: at most max_queue admitted requests in the system. The
  // rejected request never reaches a worker — shedding from the I/O thread
  // keeps the rejection latency flat no matter how deep the overload.
  size_t prev = in_system_.fetch_add(1, std::memory_order_seq_cst);
  if (options_.max_queue > 0 && prev >= options_.max_queue) {
    in_system_.fetch_sub(1, std::memory_order_seq_cst);
    shed_n_.fetch_add(1, std::memory_order_relaxed);
    outcome_shed_metric_->Increment();
    Respond(conn, sid + " SHED", true);
    return;
  }
  queue_depth_metric_->Add(1);
  std::shared_ptr<Conn> conn_ref = conn;
  Request moved = std::move(req);
  bool accepted = workers_->Submit(
      [this, conn_ref, moved = std::move(moved)] { Execute(conn_ref, moved); });
  if (!accepted) {
    in_system_.fetch_sub(1, std::memory_order_seq_cst);
    queue_depth_metric_->Add(-1);
    fail("draining");
  }
}

void Server::Execute(const std::shared_ptr<Conn>& conn, const Request& req) {
  std::string line;
  if (req.verb == 'I') {
    SetId id = backend_->AddRecord(req.text);
    line = req.id + " INS " + std::to_string(id) + " " +
           std::to_string(backend_->version());
    insert_n_.fetch_add(1, std::memory_order_relaxed);
    inserts_metric_->Increment();
    ok_n_.fetch_add(1, std::memory_order_relaxed);
    outcome_ok_metric_->Increment();
  } else {
    SelectOptions options;
    if (options_.deadline_ms > 0) {
      // Anchored at arrival, not at execution start: time spent queued
      // counts against the SLO, so a backlogged server returns fast
      // partials instead of stacking full-length queries.
      options.control.deadline =
          req.arrival + std::chrono::milliseconds(options_.deadline_ms);
    }
    auto budget = options_.tenant_budgets.find(req.tenant);
    options.control.max_elements_read = budget != options_.tenant_budgets.end()
                                            ? budget->second
                                            : options_.default_element_budget;
    QueryResult result =
        backend_->Select(req.text, req.tau, req.kind, options);
    if (!result.status.ok()) {
      line = req.id + " ERR " + Sanitize(result.status.ToString());
      error_n_.fetch_add(1, std::memory_order_relaxed);
      outcome_error_metric_->Increment();
    } else {
      bool complete = result.termination == Termination::kCompleted;
      line = req.id;
      line += complete ? " OK "
                       : std::string(" PARTIAL ") +
                             TerminationName(result.termination) + " ";
      line += std::to_string(result.snapshot_version);
      line += ' ';
      line += std::to_string(result.matches.size());
      char buf[64];
      for (const Match& m : result.matches) {
        // %.17g round-trips a double exactly: the client-side score is
        // bit-identical to the one a direct in-process Select returns.
        std::snprintf(buf, sizeof(buf), " %llu:%.17g",
                      static_cast<unsigned long long>(m.id), m.score);
        line += buf;
      }
      if (complete) {
        ok_n_.fetch_add(1, std::memory_order_relaxed);
        outcome_ok_metric_->Increment();
      } else {
        partial_n_.fetch_add(1, std::memory_order_relaxed);
        outcome_partial_metric_->Increment();
      }
    }
  }
  uint64_t usec = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - req.arrival)
          .count());
  latency_usec_.Observe(usec);
  latency_metric_->Observe(usec);
  Respond(conn, std::move(line), false);
  // Leave the system only after the response bytes are appended: the drain
  // condition (in_system_ == 0 && all out buffers empty) must never observe
  // a request that is gone from the count but not yet in a buffer.
  in_system_.fetch_sub(1, std::memory_order_seq_cst);
  queue_depth_metric_->Add(-1);
}

void Server::Respond(const std::shared_ptr<Conn>& conn, std::string line,
                     bool on_io_thread) {
  line.push_back('\n');
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->out += line;
  }
  if (on_io_thread) {
    FlushConn(conn);
  } else {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_queue_.push_back(conn);
    }
    uint64_t n = 1;
    ssize_t ignored = write(wake_fd_, &n, sizeof(n));
    (void)ignored;
  }
}

void Server::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool fatal = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    while (!conn->out.empty()) {
      ssize_t n = send(conn->fd, conn->out.data(), conn->out.size(),
                       MSG_NOSIGNAL);
      if (n > 0) {
        conn->out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = conn->fd;
          epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
          conn->want_write = true;
        }
        return;
      }
      fatal = true;
      break;
    }
    if (!fatal && conn->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->fd;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->want_write = false;
    }
  }
  if (fatal) CloseConn(conn);
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conns_.erase(conn->fd) == 0) return;  // already closed
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->out.clear();
  }
  close(conn->fd);
  conns_metric_->Add(-1);
}

bool Server::DrainComplete() {
  // Order matters: the count first. A worker appends its response (under
  // the conn mutex) before decrementing, so once in_system_ reads 0 every
  // response is visible to the buffer sweep below.
  if (in_system_.load(std::memory_order_seq_cst) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    if (!flush_queue_.empty()) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->out.empty()) return false;
  }
  return true;
}

}  // namespace simsel::serve
