#include "src/exec/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace selest {
namespace {

thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // Dropped by contract; ParallelFor captures exceptions per chunk
      // before they ever reach this loop.
    }
  }
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("SELEST_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return std::min(static_cast<size_t>(parsed), kMaxThreads);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace selest
