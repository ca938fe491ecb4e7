#ifndef SIMSEL_OBS_FLIGHT_RECORDER_H_
#define SIMSEL_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "obs/trace.h"

namespace simsel::obs {

/// \file
/// Always-on flight recorder with tail sampling.
///
/// Tracing via SelectOptions::trace is opt-in and per-query; production
/// incidents need the opposite: *every* query is recorded cheaply, and only
/// the interesting ones — slow, tripped by a QueryControl, or failed — are
/// kept in full. The recorder implements that in two tiers:
///
///  1. **Per-thread ring buffer.** Each executing thread owns a fixed-size
///     ring of recently completed spans (a seqlock per slot, relaxed
///     atomics only — no locks, no cross-thread cache-line sharing on the
///     write path). Healthy queries cost a handful of relaxed stores per
///     span and are overwritten by later traffic; DumpEvents() snapshots
///     the rings best-effort for "what was the process doing just now".
///
///  2. **Slow-query log.** When a completed query exceeds the latency
///     threshold, trips its QueryControl, or fails, its complete span tree
///     plus counter deltas and termination reason are serialized to one
///     structured-JSON record and appended to a bounded in-memory log
///     (optionally forwarded to a sink — the CLI wires a file). This is
///     tail sampling: the decision to keep is made *after* the query ran,
///     so no sampling rate has to be guessed up front.
///
/// Fan-out queries feed the recorder: when a query over more than one
/// segment arrives without a caller trace, SimilaritySelector attaches the
/// recorder's reusable thread-local trace so span data exists to sample
/// (see ThreadTrace); explicitly traced queries are sampled from the
/// caller's trace. A one-segment query deliberately does NOT auto-attach —
/// it runs in tens of microseconds with hundreds of spans, so sampling
/// them all would blow the bench budget; untraced one-segment queries still
/// report completions (latency, counters, termination) without spans. With
/// SIMSEL_DISABLE_TRACING the recorder compiles to stubs (ThreadTrace
/// returns null, nothing records).

/// One completed span captured in a thread's ring.
struct FlightEvent {
  const char* name;
  uint32_t tid;    // recorder-assigned dense thread index
  uint32_t depth;
  uint32_t tag;    // TraceSpan::kNoTag or the shard/batch instance
  uint64_t start_ns;  // offset from the recorder's process epoch
  uint64_t dur_ns;
  uint64_t items;
};

/// Everything OnQueryComplete needs to decide keep-vs-drop and to build the
/// slow-query record. Pointers are borrowed for the duration of the call.
struct QueryCompletion {
  const char* algo = "";          // AlgorithmKindName(kind)
  uint64_t latency_usec = 0;
  const char* termination = "";   // TerminationName(result.termination)
  bool tripped = false;           // termination != kCompleted
  bool failed = false;            // !status.ok()
  std::string status_message;     // empty when OK
  const AccessCounters* counters = nullptr;
  const QueryTrace* trace = nullptr;  // may be null (tracing compiled out)
};

class FlightRecorder {
 public:
  /// Events retained per thread. Power of two; one slot is 64 bytes.
  static constexpr size_t kRingCapacity = 512;
  /// Most recent slow-query records kept in memory.
  static constexpr size_t kMaxSlowRecords = 64;

  /// Process-wide instance (never destroyed, like MetricsRegistry).
  static FlightRecorder& Global();

  /// Recording master switch; ON by default ("always-on"). Disabling stops
  /// both tiers and makes ThreadTrace return null.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Latency threshold for the slow-query log, in microseconds. 0 (the
  /// default) keeps only tripped and failed queries.
  uint64_t slow_query_usec() const {
    return slow_query_usec_.load(std::memory_order_relaxed);
  }
  void set_slow_query_usec(uint64_t usec) {
    slow_query_usec_.store(usec, std::memory_order_relaxed);
  }

  /// The calling thread's reusable sampling trace, Clear()ed and ready to
  /// record, or null when the recorder is disabled (or tracing is compiled
  /// out). The object stays owned by the recorder and is only valid on the
  /// calling thread until its next ThreadTrace() call — callers must not
  /// publish it (QueryResult::trace keeps reporting the caller's own trace).
  QueryTrace* ThreadTrace();

  /// Tail-sampling decision point; the selector facades call it once per
  /// executed query (cache hits are not executions). Slow, tripped or
  /// failed queries are serialized into the slow-query log; healthy ones
  /// push their spans into the calling thread's ring.
  void OnQueryComplete(const QueryCompletion& info);

  /// Best-effort snapshot of every thread's ring, oldest first. Torn slots
  /// (overwritten mid-read) are skipped; the result is for diagnostics, not
  /// accounting.
  std::vector<FlightEvent> DumpEvents() const;

  /// The retained slow-query JSON records, oldest first.
  std::vector<std::string> SlowQueryLog() const;
  uint64_t slow_queries_recorded() const {
    return slow_records_total_.load(std::memory_order_relaxed);
  }

  /// Forwards every new slow-query record (called under the log mutex —
  /// keep it quick). Pass nullptr to detach.
  void SetSlowQuerySink(std::function<void(const std::string&)> sink);

  /// Drops rings, slow records and the sink; re-enables recording. Tests
  /// share the process-wide instance, so each fixture starts clean.
  void ResetForTest();

  /// Serializes one completed query as the slow-query log does — exposed so
  /// tests and tools can build records without going through sampling.
  static std::string BuildRecordJson(const QueryCompletion& info);

 private:
  struct Slot {
    // Seqlock: odd while the owning thread writes, +2 when stable. Readers
    // retry-or-skip; every field is a relaxed atomic so concurrent dump and
    // overwrite stay data-race-free (torn *events* are discarded via seq).
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> meta{0};  // depth << 32 | tag
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> items{0};
  };

  struct ThreadState {
    explicit ThreadState(uint32_t tid) : tid(tid) {}
    const uint32_t tid;
    std::atomic<uint64_t> head{0};  // total events ever pushed
    std::vector<Slot> slots{kRingCapacity};
    QueryTrace sample_trace;
  };

  FlightRecorder() = default;

  ThreadState& LocalState();
  void PushSpans(const QueryTrace& trace);

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> slow_query_usec_{0};
  std::atomic<uint64_t> slow_records_total_{0};

  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;

  mutable std::mutex log_mu_;
  std::deque<std::string> slow_log_;
  std::function<void(const std::string&)> sink_;

  QueryTrace::Clock::time_point process_epoch_{QueryTrace::Clock::now()};
};

}  // namespace simsel::obs

#endif  // SIMSEL_OBS_FLIGHT_RECORDER_H_
