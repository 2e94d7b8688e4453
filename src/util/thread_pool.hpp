// Fixed-size worker pool. parallel_for (and so the replication runner and
// the batch evaluator) enqueues one helper task per worker here; the helpers
// and the calling thread share the loop's chunks.
//
// Design notes (per the HPC guides): explicit parallelism, no detached
// threads, deterministic shutdown via RAII. Tasks are type-erased
// std::function<void()>; the queue is a simple mutex-guarded deque, which is
// ample because every task in this library is coarse (a full simulation
// replication or one sweep point).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace vmcons {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks enqueued but not yet claimed by a worker. Zero after every
  /// parallel_for returns (it joins every helper it enqueued, even on a
  /// stop or an error) — tests use this to assert a cancelled batch leaked
  /// nothing.
  std::size_t queued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Enqueues a task and returns a future for its completion/exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    available_.notify_one();
    return future;
  }

  /// Returns the process-wide default pool (created on first use). Its size
  /// is hardware concurrency, overridable via the VMCONS_THREADS environment
  /// variable (read once, at first use; unset/0/unparsable falls back to
  /// hardware concurrency). Pinning the size only changes wall time, never
  /// results — see "Reproducible parallelism" in CONTRIBUTING.md.
  static ThreadPool& shared();

  /// True when the calling thread is a worker of *any* ThreadPool (set via
  /// a thread-local flag in worker_loop). parallel_for uses this to run
  /// nested loops inline: a worker that waited for helpers queued behind
  /// it would deadlock the pool.
  static bool on_worker_thread() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  bool stopping_ = false;
};

}  // namespace vmcons
