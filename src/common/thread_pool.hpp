#pragma once
// Minimal work-stealing-free thread pool for parameter sweeps.
//
// Experiment sweeps (Figs. 11-15 run dozens of independent configs) are
// embarrassingly parallel; the pool keeps the sweep code simple and the
// simulator itself single-threaded and deterministic per config.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace srbsg {

class ThreadPool {
 public:
  /// Largest worker count the command-line tools accept for --threads.
  static constexpr std::size_t kMaxThreads = 1024;

  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future reports its result/exception.
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_{false};
};

/// Run fn(i) for i in [0, n) across the pool; rethrows the first exception.
///
/// Scheduling is chunked: workers claim blocks of `grain` items off a
/// shared atomic index, so the pool receives one task per worker instead
/// of one heap-allocated future per item, and load balancing stays
/// dynamic. The calling thread participates, so the pool being busy (or
/// empty) never deadlocks the loop. `grain` defaults to 1 — right for
/// coarse items like to-failure simulations; raise it for large grids of
/// tiny items so neighbours share one claim. After an exception no new
/// blocks are claimed; already-claimed blocks finish, then the first
/// exception is rethrown.
void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace srbsg
