#ifndef SIMSEL_SERVE_SERVER_H_
#define SIMSEL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/types.h"
#include "obs/metrics_registry.h"
#include "serve/dynamic_serving.h"

namespace simsel::serve {

/// Construction knobs for the network front end.
struct ServerOptions {
  /// Interface to bind (dotted IPv4).
  std::string listen_addr = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Executor threads. Each admitted request runs on one worker; the
  /// DynamicServing's own pool (rebuilds and segment fan-out, if any) must
  /// be a different pool — the usual nested-fan-out starvation rule
  /// (docs/CONCURRENCY.md).
  size_t num_workers = 2;
  /// Admission bound: the maximum number of admitted requests in the system
  /// (queued or executing). A request arriving at the bound is rejected
  /// immediately with the distinct SHED status — shedding early is the
  /// point, a rejected client can retry elsewhere instead of waiting for a
  /// deadline the queue has already spent.
  size_t max_queue = 64;
  /// Per-request SLO: every admitted query gets an absolute deadline of
  /// arrival + deadline_ms (QueryControl::deadline), so queue wait counts
  /// against the budget and an overloaded server degrades to fast partials
  /// instead of unbounded latency. 0 = no deadline.
  size_t deadline_ms = 0;
  /// Element budget (QueryControl::max_elements_read) applied to a query
  /// whose tenant has no entry in tenant_budgets. 0 = unlimited.
  uint64_t default_element_budget = 0;
  /// Per-tenant element budget overrides, keyed by the tenant field of the
  /// request line. The reserved tenant "-" is the anonymous default.
  std::map<std::string, uint64_t> tenant_budgets;
};

/// Minimal TCP serving front end over a DynamicServing (a main part over any
/// number of segments, plus the delta): one epoll I/O thread owning every
/// socket, a worker ThreadPool executing admitted requests, queue-depth
/// admission control, per-request deadlines, per-tenant element budgets,
/// and graceful drain.
///
/// **Protocol** — newline-delimited text, one request per line, any number
/// of requests pipelined per connection. The client-chosen id (any token
/// without spaces) is echoed in the response line, so pipelined responses
/// match up regardless of completion order:
///
///     <id> Q <tenant> <tau> <algo> <text...>   threshold selection
///     <id> I <tenant> <text...>                insert
///     <id> PING                                liveness probe
///
///     <id> OK <version> <n> <set>:<score> ...      complete answer
///     <id> PARTIAL <reason> <version> <n> <set>:<score> ...
///     <id> SHED                                admission rejection
///     <id> INS <set> <version>                 insert acknowledged
///     <id> ERR <message>                       malformed / failed / draining
///     <id> PONG
///
/// `tau` follows the CLI convention (fraction in (0,1] or percentage in
/// (1,100]); `algo` is the CLI name (sf|inra|hybrid|ita|ta|nra|sortbyid|
/// pf|scan); scores are printed with %.17g so a parsed double is
/// bit-identical to the server-side score. PARTIAL carries the termination
/// reason (deadline|budget|cancelled) — the matches listed are exact, the
/// set may be incomplete (core/types.h Termination).
///
/// **Admission and SLO.** A request is admitted only when fewer than
/// max_queue admitted requests are in the system; otherwise it is answered
/// SHED from the I/O thread without touching a worker. Admitted queries
/// carry an absolute deadline anchored at arrival, so under overload the
/// tail is bounded: either a request sheds instantly or its execution trips
/// at the SLO and returns a sound partial.
///
/// **Drain.** RequestStop (async-signal-safe, wire it to SIGTERM) makes the
/// I/O thread stop accepting connections, answer new requests on live
/// connections with `ERR draining`, and keep pumping until every admitted
/// request has executed and every response byte is flushed; then sockets
/// close, the worker pool shuts down in drain mode, and Join returns. No
/// admitted request is ever dropped.
///
/// **Metrics.** simsel_server_requests_total{outcome=ok|partial|shed|error},
/// simsel_server_inserts_total, simsel_server_queue_depth,
/// simsel_server_active_connections and simsel_server_request_usec (admitted
/// requests, arrival to response) mirror the per-instance tallies exposed
/// below for tests.
class Server {
 public:
  /// Serves `backend` (borrowed; it must outlive the server).
  Server(DynamicServing* backend, const ServerOptions& options);
  /// Shutdown() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the I/O thread + worker pool. Non-blocking;
  /// after an OK return the server is reachable on port().
  Status Start();

  /// The bound port (resolves an ephemeral request after Start).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain. Async-signal-safe (one eventfd write), so a
  /// SIGTERM handler may call it directly. Idempotent.
  void RequestStop();

  /// Blocks until the drain completes and every thread exited.
  void Join();

  /// RequestStop() + Join().
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Per-instance tallies (the registry metrics aggregate across servers).
  uint64_t ok_count() const { return ok_n_.load(std::memory_order_relaxed); }
  uint64_t partial_count() const {
    return partial_n_.load(std::memory_order_relaxed);
  }
  uint64_t shed_count() const {
    return shed_n_.load(std::memory_order_relaxed);
  }
  uint64_t error_count() const {
    return error_n_.load(std::memory_order_relaxed);
  }
  uint64_t insert_count() const {
    return insert_n_.load(std::memory_order_relaxed);
  }
  /// Admitted requests currently in the system (queued or executing).
  size_t queue_depth() const {
    return in_system_.load(std::memory_order_relaxed);
  }
  /// Arrival-to-response latency of admitted requests, microseconds.
  obs::HistogramSnapshot latency_snapshot() const {
    return latency_usec_.Snapshot();
  }

 private:
  struct Conn;
  struct Request;

  void IoLoop();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Parses and routes one request line (I/O thread).
  void HandleLine(const std::shared_ptr<Conn>& conn, std::string_view line);
  /// Executes one admitted request (worker thread).
  void Execute(const std::shared_ptr<Conn>& conn, const Request& req);

  /// Appends a response line and (worker) queues the flush or (I/O thread)
  /// flushes inline.
  void Respond(const std::shared_ptr<Conn>& conn, std::string line,
               bool on_io_thread);
  /// Writes as much buffered output as the socket accepts (I/O thread).
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void AcceptNew();
  bool DrainComplete();

  DynamicServing* backend_;
  ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::map<int, std::shared_ptr<Conn>> conns_;  // I/O thread only

  /// Connections with response bytes appended by workers, awaiting an I/O
  /// thread flush.
  std::mutex flush_mu_;
  std::vector<std::shared_ptr<Conn>> flush_queue_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<size_t> in_system_{0};

  std::atomic<uint64_t> ok_n_{0};
  std::atomic<uint64_t> partial_n_{0};
  std::atomic<uint64_t> shed_n_{0};
  std::atomic<uint64_t> error_n_{0};
  std::atomic<uint64_t> insert_n_{0};
  obs::Histogram latency_usec_;

  obs::Gauge* queue_depth_metric_;
  obs::Gauge* conns_metric_;
  obs::Counter* inserts_metric_;
  obs::Histogram* latency_metric_;
  obs::Counter* outcome_ok_metric_;
  obs::Counter* outcome_partial_metric_;
  obs::Counter* outcome_shed_metric_;
  obs::Counter* outcome_error_metric_;
};

/// Parses the protocol's algorithm token (the CLI names); false on an
/// unknown name.
bool ParseAlgoName(std::string_view name, AlgorithmKind* kind);
/// The protocol token for `kind` (inverse of ParseAlgoName).
const char* AlgoToken(AlgorithmKind kind);

}  // namespace simsel::serve

#endif  // SIMSEL_SERVE_SERVER_H_
