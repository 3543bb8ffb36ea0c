#ifndef STIX_COMMON_THREAD_POOL_H_
#define STIX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace stix {

/// Fixed-size worker pool. The cluster owns one long-lived instance sized to
/// the host's concurrency and the router fans every query out on it, so no
/// query ever pays thread start-up; the single-machine reproduction still
/// *measures* per-shard time separately (see Router), so correctness does
/// not depend on physical parallelism.
///
/// Concurrent queries share the pool safely through TaskGroup, which scopes
/// completion tracking to one batch of tasks instead of the whole pool.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks may run in any order.
  void Submit(std::function<void()> task) { Enqueue({std::move(task), {}}); }

  /// Blocks until every submitted task has finished (pool-wide; prefer
  /// TaskGroup::Wait when multiple clients share the pool).
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks fully executed by this pool over its lifetime.
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

  /// hardware_concurrency with a floor of 1 (hardware_concurrency may
  /// report 0 on exotic platforms).
  static int DefaultThreads();

  /// Process-wide count of OS threads ever started by any ThreadPool.
  /// Lets tests assert that running queries does not create threads.
  static uint64_t threads_started();

  /// Completion tracking for one batch of tasks submitted to a shared pool.
  /// Each concurrent client (e.g. one in-flight query) uses its own group;
  /// Wait() returns when *this group's* tasks are done, regardless of what
  /// other clients have in flight.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool)
        : pool_(pool), state_(std::make_shared<State>()) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Submit(std::function<void()> task);
    void Wait();

   private:
    // Shared with in-flight task wrappers so a worker finishing after the
    // group object is destroyed never touches freed memory.
    struct State {
      std::mutex mu;
      std::condition_variable done;
      int pending = 0;
    };

    ThreadPool* pool_;
    std::shared_ptr<State> state_;
  };

 private:
  /// A task plus the completion hook the worker runs after counting it in
  /// tasks_completed_, so a waiter woken by the hook sees the count.
  struct Job {
    std::function<void()> task;
    std::function<void()> on_done;
  };

  void Enqueue(Job job);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Job> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
  std::atomic<uint64_t> tasks_completed_{0};
};

}  // namespace stix

#endif  // STIX_COMMON_THREAD_POOL_H_
