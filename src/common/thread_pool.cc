#include "common/thread_pool.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"

namespace stix {
namespace {

std::atomic<uint64_t> g_threads_started{0};

}  // namespace

int ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t ThreadPool::threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    g_threads_started.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(Job job) {
  // Fan-out pool pressure for ServerStatus: instantaneous queue depth (with
  // its high-water mark) and per-task run latency.
  STIX_METRIC_GAUGE(queue_depth, "fanout.queue_depth");
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(job));
    ++in_flight_;
  }
  queue_depth.Add(1);
  queue_depth.UpdateMax();
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      job = std::move(tasks_.front());
      tasks_.pop();
    }
    STIX_METRIC_GAUGE(queue_depth, "fanout.queue_depth");
    STIX_METRIC_HISTOGRAM(task_micros, "fanout.task_micros");
    STIX_METRIC_COUNTER(tasks_done, "fanout.tasks_completed");
    queue_depth.Sub(1);
    Stopwatch task_timer;
    job.task();
    task_micros.Observe(static_cast<uint64_t>(task_timer.ElapsedMicros()));
    tasks_done.Increment();
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    if (job.on_done) job.on_done();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::TaskGroup::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->pending;
  }
  // The group's count drops in the completion hook, after the pool has
  // counted the task, so Wait() never returns ahead of tasks_completed().
  pool_->Enqueue({std::move(task), [state = state_] {
                    // Notify under the lock: the waiter may destroy the
                    // TaskGroup as soon as pending hits 0, but `state` is
                    // kept alive by this closure.
                    std::lock_guard<std::mutex> lock(state->mu);
                    --state->pending;
                    state->done.notify_all();
                  }});
}

void ThreadPool::TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done.wait(lock, [this] { return state_->pending == 0; });
}

}  // namespace stix
