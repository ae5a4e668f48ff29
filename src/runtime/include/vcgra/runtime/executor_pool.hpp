// Fixed-size worker pool for concurrent Simulator execution.
//
// Deliberately generic: the OverlayService feeds it job closures and
// submit_task() work such as graph invocations. Work is a FIFO of
// type-erased thunks; submit() wraps any callable into a packaged_task
// and returns the matching future.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "vcgra/telemetry/metrics.hpp"

namespace vcgra::runtime {

class ExecutorPool {
 public:
  /// `threads` < 1 is clamped to 1. The pool's counts (pool.*) land in
  /// `registry`, which must outlive the pool.
  explicit ExecutorPool(int threads, telemetry::MetricsRegistry& registry =
                                         telemetry::metrics());

  /// Drains the queue, then joins the workers.
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    submit_detached([task]() { (*task)(); });
    return future;
  }

  /// Fire-and-forget; the callable must not throw.
  void submit_detached(std::function<void()> work);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  int thread_count() const { return static_cast<int>(threads_.size()); }
  std::size_t pending() const;

 private:
  struct QueuedWork {
    std::function<void()> work;
    std::uint64_t enqueue_ns = 0;  // trace clock; feeds pool.queue_wait
  };

  void worker_loop();

  /// The queue-wait vs. run-time split of every thunk. A rising
  /// pool.queue_wait with flat pool.run is the classic saturation
  /// signature (not enough workers); the reverse is slow work.
  telemetry::Counter& submitted_;
  telemetry::Gauge& queue_depth_;
  telemetry::LatencyHistogram& queue_wait_;
  telemetry::LatencyHistogram& run_;

  std::vector<std::thread> threads_;
  std::deque<QueuedWork> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace vcgra::runtime
