#include "src/exec/parallel_for.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>

#include "src/exec/fault_injection.h"

namespace selest {

std::vector<std::pair<size_t, size_t>> SplitRange(size_t n, size_t num_chunks) {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (n == 0) return chunks;
  num_chunks = std::clamp<size_t>(num_chunks, 1, n);
  chunks.reserve(num_chunks);
  const size_t base = n / num_chunks;
  const size_t remainder = n % num_chunks;
  size_t begin = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    const size_t size = base + (i < remainder ? 1 : 0);
    chunks.emplace_back(begin, begin + size);
    begin += size;
  }
  return chunks;
}

namespace {

// True while the calling (non-worker) thread is executing its own chunk of
// an active fan-out. Nested ParallelFor calls from such a context run
// serially, exactly like calls from worker threads: one fan-out at a time
// is the policy, nested parallelism never multiplies.
thread_local bool t_in_parallel_region = false;

// Completion latch for one fan-out. Each chunk decrements once; the caller
// blocks until the count reaches zero.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

bool Failed(const std::exception_ptr& error) { return error != nullptr; }
bool Failed(const Status& status) { return !status.ok(); }

// The one scheduler behind ParallelFor and TryParallelFor. Runs
// run_chunk(i) for every i in [0, num_chunks), each into its own outcome
// slot, and returns the outcome of the lowest-indexed failed chunk (a
// default Outcome when none failed) once every chunk has finished. One
// slot per chunk makes that pick deterministic, not a race between
// failing chunks; every chunk runs whatever the others did, so outputs
// and fault-point hit counts never depend on an early exit.
template <typename Outcome, typename RunChunk>
Outcome RunChunks(ThreadPool* pool, size_t num_chunks, RunChunk&& run_chunk) {
  std::vector<Outcome> outcomes(num_chunks);
  const bool serial = pool == nullptr || num_chunks <= 1 ||
                      ThreadPool::InWorkerThread() || t_in_parallel_region;
  if (serial) {
    for (size_t i = 0; i < num_chunks; ++i) outcomes[i] = run_chunk(i);
  } else {
    Latch latch(num_chunks);
    auto run = [&](size_t i) {
      outcomes[i] = run_chunk(i);
      latch.CountDown();
    };
    // The calling thread takes chunk 0 while the workers drain the rest:
    // with a single-worker pool this still overlaps caller and worker, and
    // a caller-side chunk guarantees progress even if every worker is busy.
    for (size_t i = 1; i < num_chunks; ++i) {
      pool->Schedule([&run, i] { run(i); });
    }
    t_in_parallel_region = true;
    run(0);
    t_in_parallel_region = false;
    latch.Wait();
  }
  for (Outcome& outcome : outcomes) {
    if (Failed(outcome)) return std::move(outcome);
  }
  return Outcome();
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n, size_t num_chunks,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  const auto chunks = SplitRange(n, num_chunks);
  const std::exception_ptr error = RunChunks<std::exception_ptr>(
      pool, chunks.size(), [&](size_t i) -> std::exception_ptr {
        try {
          body(chunks[i].first, chunks[i].second, i);
        } catch (...) {
          return std::current_exception();
        }
        return nullptr;
      });
  if (error) std::rethrow_exception(error);
}

Status TryParallelFor(
    ThreadPool* pool, size_t n, size_t num_chunks,
    const std::function<Status(size_t, size_t, size_t)>& body) {
  const auto chunks = SplitRange(n, num_chunks);
  // Per chunk: the fault-point check, the body, and an exception-to-Status
  // firewall, in that order.
  return RunChunks<Status>(pool, chunks.size(), [&](size_t i) -> Status {
    SELEST_RETURN_IF_ERROR(FaultInjector::Check(kFaultPointExecTask));
    try {
      return body(chunks[i].first, chunks[i].second, i);
    } catch (const std::exception& e) {
      return InternalError(std::string("task threw: ") + e.what());
    } catch (...) {
      return InternalError("task threw a non-std exception");
    }
  });
}

}  // namespace selest
