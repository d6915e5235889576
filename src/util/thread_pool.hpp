#pragma once

// Fixed-size thread pool with a parallel_for convenience wrapper.
//
// Runs cpu::brandes's root workers (the CPU analogue of the paper's
// one-root-per-SM mapping), kernels::BlockDriver's simulated blocks, the
// service's request workers and dyn's identification passes. parallel_for
// degrades to inline execution on a one-thread pool.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hbc::util {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the pool, blocking until done.
  /// Iterations are chunked to amortize dispatch overhead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace hbc::util
