// Deterministic chunked fan-out over an index range.
//
// ParallelFor partitions [0, n) into contiguous chunks with boundaries that
// depend only on (n, num_chunks) — never on thread count or timing — and
// runs a body per chunk. Callers get bit-identical results at any
// parallelism level as long as each chunk writes only to its own output
// slots and any floating-point reduction happens after the fan-out, in
// chunk order (the "fixed-order reduction" contract; see DESIGN.md,
// Execution layer). The eval layer (eval/parallel_experiment.h) is the one
// caller that fans estimation out; estimator batches run on whichever
// thread runs their chunk.
#ifndef SELEST_EXEC_PARALLEL_FOR_H_
#define SELEST_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/util/status.h"

namespace selest {

// The deterministic partition used by ParallelFor: min(num_chunks, n)
// contiguous [begin, end) chunks covering [0, n), sizes differing by at
// most one, larger chunks first. Empty when n == 0; a num_chunks of 0 is
// treated as 1.
std::vector<std::pair<size_t, size_t>> SplitRange(size_t n, size_t num_chunks);

// Runs body(begin, end, chunk_index) for every chunk of SplitRange(n,
// num_chunks). Chunks run on `pool` workers plus the calling thread; the
// call returns after every chunk has finished. Runs serially (in chunk
// order, on the calling thread) when pool is null, when there is at most
// one chunk, or when called from inside an active fan-out (a pool worker,
// or the calling thread running its own chunk) — nested fan-outs degrade
// to serial instead of deadlocking on or flooding the shared queue.
//
// If chunk bodies throw, the exception from the lowest-indexed throwing
// chunk is rethrown after all chunks complete — on the serial path too —
// and the pool remains usable.
void ParallelFor(ThreadPool* pool, size_t n, size_t num_chunks,
                 const std::function<void(size_t, size_t, size_t)>& body);

// Status-first fan-out, same scheduling and determinism contract as
// ParallelFor. Every chunk runs to completion regardless of other chunks'
// outcomes; afterwards the error of the lowest-indexed failing chunk is
// returned (OK when all chunks succeed). A chunk fails when its body
// returns a non-OK Status, when it throws (reported as kInternal), or when
// the `exec/task` fault point (exec/fault_injection.h) fires for it —
// the hook that lets the robustness suite prove an injected task failure
// surfaces as a Status instead of crashing or hanging the pool.
//
// Guarded pipelines (eval/parallel_experiment.h RunConfigsGuarded) use
// this; the void ParallelFor above remains for bodies that cannot fail.
Status TryParallelFor(ThreadPool* pool, size_t n, size_t num_chunks,
                      const std::function<Status(size_t, size_t, size_t)>& body);

}  // namespace selest

#endif  // SELEST_EXEC_PARALLEL_FOR_H_
