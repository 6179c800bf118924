// A deterministic fixed-size thread pool (no work stealing).
//
// The parallel experiment runner fans work out as contiguous,
// pre-partitioned chunks (see exec/parallel_for.h); the live server runs
// its background refreshes here. Which worker runs which chunk is
// intentionally *not* part of the contract: every chunk writes only to its
// own output slots, and all reductions happen in a fixed serial order
// after the fan-out completes, so results are bit-identical regardless of
// thread count or scheduling order.
//
// Tasks must not block on work enqueued to the same pool (classic nested-
// wait deadlock). ParallelFor enforces this by degrading to serial
// execution when invoked from a worker thread.
#ifndef SELEST_EXEC_THREAD_POOL_H_
#define SELEST_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace selest {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  // Completes every task already scheduled, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Enqueues a task for execution on some worker. Tasks run in FIFO claim
  // order but may complete in any order. An exception escaping a task is
  // caught and dropped — the pool survives; use ParallelFor when the
  // caller needs the exception propagated.
  void Schedule(std::function<void()> task);

  // True iff the calling thread is a worker of *any* ThreadPool. Used to
  // serialize nested parallelism instead of deadlocking.
  static bool InWorkerThread();

  // Process-wide shared pool, created on first use with DefaultThreadCount()
  // workers. Never destroyed before exit.
  static ThreadPool& Default();

  // SELEST_THREADS environment override if set and positive, capped at
  // kMaxThreads so a typo cannot start thousands of workers; otherwise
  // std::thread::hardware_concurrency() (at least 1).
  static size_t DefaultThreadCount();
  static constexpr size_t kMaxThreads = 256;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace selest

#endif  // SELEST_EXEC_THREAD_POOL_H_
