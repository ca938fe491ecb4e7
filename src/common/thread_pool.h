#ifndef SIMSEL_COMMON_THREAD_POOL_H_
#define SIMSEL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace simsel {

/// Fixed-size worker pool used by the parallel query executors (the paper's
/// future-work item "devise parallel versions of all algorithms").
///
/// Tasks are plain std::function<void()>; Submit never blocks (unbounded
/// queue) and Wait blocks until every submitted task has finished. The pool
/// joins its workers on destruction.
///
/// Long-running tasks (DynamicSelector::StartRebuild folds a whole segment
/// on one worker) occupy their worker for the duration — size the pool so
/// query scatter work is not starved behind them, and never Wait on the
/// pool from inside one of its own tasks (docs/CONCURRENCY.md).
class ThreadPool {
 public:
  /// What happens to tasks still queued when Shutdown is called.
  enum class ShutdownMode {
    kDrain,  ///< finish every queued task before workers exit
    kAbort,  ///< drop queued-but-unstarted tasks; running ones finish
  };

  /// Spawns `num_threads` workers (>= 1; defaults to hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  /// Shutdown(kDrain), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Returns true when accepted; false — and the task is
  /// NOT enqueued — once Shutdown has begun. Racing Submit against Shutdown
  /// is well-defined: the task either runs to completion (drain mode, or it
  /// was dequeued before an abort) or is never started; it is never started
  /// and then abandoned half-way.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  /// Stops accepting tasks and blocks until the pool is quiescent: in
  /// kDrain mode every already-queued task has finished, in kAbort mode
  /// queued-but-unstarted tasks are discarded and only the currently
  /// running ones are waited for. Returns how many queued tasks were
  /// dropped (always 0 in drain mode). Idempotent and thread-safe; the
  /// first caller's mode wins and later calls just wait for quiescence.
  /// Workers are not joined here — destruction still does that — so the
  /// pool object stays valid (Submit returns false) after Shutdown.
  size_t Shutdown(ShutdownMode mode);

  /// True once Shutdown has begun (Submit will refuse).
  bool shutting_down() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [0, n) across the pool and waits for completion.
/// Indices are handed out in contiguous chunks for cache friendliness. A
/// null pool runs every index in order on the calling thread.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace simsel

#endif  // SIMSEL_COMMON_THREAD_POOL_H_
