#include "vcgra/runtime/executor_pool.hpp"

#include <algorithm>

#include "vcgra/telemetry/trace.hpp"

namespace vcgra::runtime {

ExecutorPool::ExecutorPool(int threads, telemetry::MetricsRegistry& registry)
    : submitted_(registry.counter("pool.submitted")),
      queue_depth_(registry.gauge("pool.queue_depth")),
      queue_wait_(registry.histogram("pool.queue_wait")),
      run_(registry.histogram("pool.run")) {
  const int count = std::max(1, threads);
  threads_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this]() { worker_loop(); });
  }
}

ExecutorPool::~ExecutorPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ExecutorPool::submit_detached(std::function<void()> work) {
  submitted_.add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(QueuedWork{std::move(work), telemetry::trace_now_ns()});
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ExecutorPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this]() { return queue_.empty() && active_ == 0; });
}

std::size_t ExecutorPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ExecutorPool::worker_loop() {
  for (;;) {
    QueuedWork work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping so destruction never drops
      // submitted futures.
      if (queue_.empty()) return;
      work = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
      ++active_;
    }
    const std::uint64_t picked_ns = telemetry::trace_now_ns();
    queue_wait_.record_ns(picked_ns - work.enqueue_ns);
    work.work();
    run_.record_ns(telemetry::trace_now_ns() - picked_ns);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace vcgra::runtime
