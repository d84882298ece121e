#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

namespace vup {

Status RunGuarded(const std::function<Status()>& task) {
  try {
    return task();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-std exception");
  }
}

ThreadPool::ThreadPool(Options options) : options_(std::move(options)) {
  options_.num_workers = std::max<size_t>(options_.num_workers, 1);
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  if (!options_.metrics_label.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const obs::LabelSet labels = {{"pool", options_.metrics_label}};
    tasks_total_ = registry.GetCounter(
        "vupred_threadpool_tasks_total",
        "Tasks finished by the pool (any outcome).", labels);
    task_failures_ = registry.GetCounter(
        "vupred_threadpool_task_failures_total",
        "Tasks finished with a non-OK status (exceptions included).",
        labels);
    queue_depth_ = registry.GetGauge(
        "vupred_threadpool_queue_depth",
        "Tasks queued and not yet picked up by a worker.", labels);
    task_seconds_ = registry.GetHistogram(
        "vupred_threadpool_task_seconds", "Wall-clock runtime of one task.",
        obs::Histogram::LatencyBoundsSeconds(), labels);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<Status()> task) {
  if (task == nullptr) {
    return Status::InvalidArgument("cannot submit a null task");
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return shutdown_ || queue_.size() < options_.queue_capacity;
    });
    if (shutdown_) {
      return Status::FailedPrecondition("thread pool is shut down");
    }
    queue_.push_back(std::move(task));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }
  not_empty_.notify_one();
  return Status::OK();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  return first_error_;
}

Status ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  // Wake everyone: workers drain the remaining queue, blocked producers
  // observe the shutdown and bail out.
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

size_t ThreadPool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

size_t ThreadPool::tasks_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool ThreadPool::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !shutdown_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<Status()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Shutdown with a drained queue: this worker is done.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_ != nullptr) {
        queue_depth_->Set(static_cast<double>(queue_.size()));
      }
      ++in_flight_;
    }
    not_full_.notify_one();

    const auto start = std::chrono::steady_clock::now();
    Status status = RunGuarded(task);
    if (task_seconds_ != nullptr) {
      task_seconds_->Record(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    if (tasks_total_ != nullptr) tasks_total_->Increment();
    if (task_failures_ != nullptr && !status.ok()) {
      task_failures_->Increment();
    }

    bool became_idle = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      ++completed_;
      if (!status.ok()) {
        ++failed_;
        if (first_error_.ok()) first_error_ = status;
      }
      became_idle = queue_.empty() && in_flight_ == 0;
    }
    if (became_idle) idle_.notify_all();
  }
}

}  // namespace vup
