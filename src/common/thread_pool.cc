#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics_registry.h"

namespace simsel {

namespace {

// Process-wide pool metrics shared by every ThreadPool instance.
struct PoolMetrics {
  obs::Counter* tasks;
  obs::Gauge* queue_depth;
  obs::Histogram* task_usec;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return PoolMetrics{reg.GetCounter("simsel_thread_pool_tasks_total"),
                       reg.GetGauge("simsel_thread_pool_queue_depth"),
                       reg.GetHistogram("simsel_thread_pool_task_usec")};
  }();
  return m;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Shutdown(ShutdownMode::kDrain);
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  GetPoolMetrics().queue_depth->Add(1);
  task_ready_.notify_one();
  return true;
}

size_t ThreadPool::Shutdown(ShutdownMode mode) {
  size_t dropped = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      if (mode == ShutdownMode::kAbort) {
        dropped = queue_.size();
        queue_.clear();
      }
    }
    // Quiescence: nothing queued (drained or dropped) and nothing running.
    // Waiting under the same mutex as WorkerLoop's bookkeeping means a task
    // dequeued before an abort is always waited for — the "enqueued during
    // shutdown" race resolves to ran-to-completion or never-started.
    task_ready_.notify_all();
    all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  if (dropped > 0) {
    GetPoolMetrics().queue_depth->Add(-static_cast<int64_t>(dropped));
  }
  return dropped;
}

bool ThreadPool::shutting_down() const {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    const PoolMetrics& metrics = GetPoolMetrics();
    metrics.queue_depth->Add(-1);
    WallTimer task_timer;
    task();
    metrics.tasks->Increment();
    metrics.task_usec->Observe(
        static_cast<uint64_t>(task_timer.ElapsedMicros()));
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (n == 0) return;
  const size_t num_threads = pool->num_threads();
  const size_t chunk = std::max<size_t>(1, (n + num_threads - 1) / num_threads);
  for (size_t begin = 0; begin < n; begin += chunk) {
    size_t end = std::min(n, begin + chunk);
    pool->Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool->Wait();
}

}  // namespace simsel
