#ifndef VUPRED_COMMON_THREAD_POOL_H_
#define VUPRED_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace vup {

/// Runs `task`, converting a thrown exception into an Internal Status so a
/// misbehaving task can never terminate the thread running it (the
/// library's no-exceptions contract at public boundaries).
Status RunGuarded(const std::function<Status()>& task);

/// Fixed-size worker pool with a bounded task queue, shared by the
/// prediction-serving subsystem and the fleet experiment runner.
///
/// Contract:
///  - Submit enqueues a task, blocking while the queue is at capacity
///    (back-pressure instead of unbounded memory growth). After Shutdown it
///    returns FailedPrecondition and the task is not run.
///  - Tasks return Status. A task that *throws* does not take the process
///    down: the exception is caught and converted to an Internal Status.
///    The first non-OK task status (in completion order) is retained and
///    reported by Wait/Shutdown.
///  - Shutdown is graceful: already-queued tasks are drained and executed,
///    then workers join. The destructor calls Shutdown.
///  - No task is ever lost: every successfully submitted task runs exactly
///    once, even when Shutdown races with producers.
class ThreadPool {
 public:
  struct Options {
    Options() = default;
    Options(size_t workers, size_t capacity, std::string label = {})
        : num_workers(workers),
          queue_capacity(capacity),
          metrics_label(std::move(label)) {}

    /// Worker thread count; clamped to >= 1.
    size_t num_workers = 4;
    /// Maximum queued (not yet running) tasks; clamped to >= 1.
    size_t queue_capacity = 1024;
    /// When non-empty, the pool reports to the global metrics registry as
    /// vupred_threadpool_* with label pool="<metrics_label>": tasks run,
    /// task failures, current queue depth and per-task latency. Empty
    /// (the default) disables metrics entirely.
    std::string metrics_label;
  };

  explicit ThreadPool(Options options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; blocks while the queue is full.
  /// FailedPrecondition after Shutdown.
  Status Submit(std::function<Status()> task);

  /// Blocks until every submitted task has finished (queue empty and no
  /// task in flight). Returns the first task error observed so far (OK if
  /// none). The pool stays usable afterwards.
  Status Wait();

  /// Stops accepting new tasks, drains the queue, joins the workers.
  /// Idempotent. Returns the first task error observed.
  Status Shutdown();

  size_t num_workers() const { return workers_.size(); }

  /// True until Shutdown is entered; afterwards Submit is guaranteed to
  /// fail. Callers use this to route work inline instead of dropping it.
  bool accepting() const;

  /// Tasks that finished (successfully or not) since construction.
  size_t tasks_completed() const;
  /// Tasks that finished with a non-OK status (including thrown
  /// exceptions).
  size_t tasks_failed() const;

 private:
  void WorkerLoop();

  Options options_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;   // Queue gained work or shutdown.
  std::condition_variable not_full_;    // Queue has room again.
  std::condition_variable idle_;        // Queue empty and nothing in flight.
  std::deque<std::function<Status()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  Status first_error_;
  size_t completed_ = 0;
  size_t failed_ = 0;

  // Global-registry instruments (all null when metrics are disabled).
  obs::Counter* tasks_total_ = nullptr;
  obs::Counter* task_failures_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* task_seconds_ = nullptr;
};

}  // namespace vup

#endif  // VUPRED_COMMON_THREAD_POOL_H_
