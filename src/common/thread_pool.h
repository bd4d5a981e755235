#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace nmc::common {

/// Fixed-size worker pool for fanning independent trials across cores.
///
/// Submit() returns a std::future for the callable's result; exceptions
/// thrown by a task are captured and rethrown from future::get(), never
/// swallowed. The destructor drains all already-submitted work before
/// joining, so every future obtained from Submit() becomes ready even when
/// the pool is torn down with tasks still queued.
///
/// The pool is deliberately minimal: no work stealing, no priorities, no
/// resizing. The bench runner's unit of work (one tracked run, typically
/// millions of simulated messages) is coarse enough that a mutex-protected
/// queue is nowhere near contended.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks, then joins all workers.
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result. Safe to call from
  /// multiple threads. Must not be called after the destructor has begun.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Default worker count: hardware concurrency, or 1 when unknown.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace nmc::common

