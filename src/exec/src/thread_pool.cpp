#include <ddc/exec/thread_pool.hpp>

#include <algorithm>
#include <utility>

namespace ddc::exec {

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    queue_.clear();
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ThreadPool> ThreadPool::for_parallelism(
    std::size_t parallelism) {
  const std::size_t lanes =
      parallelism == 0 ? hardware_threads() : parallelism;
  return lanes > 1 ? std::make_unique<ThreadPool>(lanes - 1) : nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace ddc::exec
