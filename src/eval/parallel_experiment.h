// Parallel batch evaluation of experiment configurations.
//
// The paper's evaluation (§5) is an embarrassingly parallel sweep:
// thousands of range queries scored against many estimator configurations
// per data file. This runner fans that sweep out on a shared thread pool:
// the exact counts over query chunks, then one task per estimator config,
// longest expected build first. It is the only layer that fans work out:
// each task's EstimateSelectivityBatch runs on the thread that runs the
// task, and `threads = 1` runs the same phases serially. The determinism
// contract:
//
//   * per-query quantities (exact count, estimated selectivity) are
//     computed independently, each exactly as the serial path computes it;
//   * every floating-point reduction runs once, on one thread, in query
//     order, after every answer it reduces exists (AccumulateReport).
//
// Reports are therefore bit-identical to the per-query serial reference
// (Evaluate in eval/metrics.h) at any thread count. See DESIGN.md,
// "Execution layer".
#ifndef SELEST_EVAL_PARALLEL_EXPERIMENT_H_
#define SELEST_EVAL_PARALLEL_EXPERIMENT_H_

#include <span>
#include <string>
#include <vector>

#include "src/est/guarded_estimator.h"
#include "src/eval/experiment.h"
#include "src/eval/metrics.h"
#include "src/exec/thread_pool.h"
#include "src/util/status.h"

namespace selest {

struct ParallelExecOptions {
  // 0 → the shared default pool (ThreadPool::DefaultThreadCount() workers);
  // 1 → serial: the same phases run on the calling thread, one query
  //     chunk per estimator, no pool involved;
  // N → a dedicated pool of N workers for this call (used by the
  //     determinism tests and the speedup benchmark).
  size_t threads = 0;
};

// Evaluate() with query chunks fanned across the pool, each chunk counted
// and then estimated in one batch. Bit-identical to Evaluate() on the same
// inputs.
ErrorReport EvaluateParallel(const SelectivityEstimator& estimator,
                             std::span<const RangeQuery> queries,
                             const GroundTruth& truth,
                             const ParallelExecOptions& options = {});

// EstimateSelectivityBatch with query chunks fanned across the shared
// default pool, one batch call per chunk. Each out[i] is exactly
// estimator.EstimateSelectivity(queries[i]).
void EstimateParallel(const SelectivityEstimator& estimator,
                      std::span<const RangeQuery> queries,
                      std::span<double> out);

// Runs a whole sweep: exact counts once, then one task per config that
// builds it, answers every query in one batch and reduces the answers.
// Tasks start costliest expected build first (h-DPI, v-optimal, hybrid,
// the kernel estimators, then caller order). Results are returned in
// config order, bit-identical to calling RunConfig on each config serially.
std::vector<StatusOr<ErrorReport>> RunConfigsParallel(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options = {});

// One sweep cell from RunConfigsGuarded: the report is always present
// (filled from whatever the guarded chain answered), annotated with what
// went wrong and how often the guard had to intervene.
struct GuardedCellReport {
  ErrorReport report;
  // Why the requested config is missing from the chain; OK when the
  // primary built and headed the chain.
  Status primary_status;
  // Non-OK when the evaluation fan-out itself failed (an injected
  // `exec/task` fault or a thrown chunk); the report is zeroed then.
  Status eval_status;
  // Degradation counters observed while scoring this cell's queries.
  GuardedStats stats;
  // name() of the guarded chain that produced the report.
  std::string estimator_name;

  bool degraded() const {
    return !primary_status.ok() || !eval_status.ok() || stats.degraded();
  }
};

// RunConfigsParallel with graceful degradation: every config is built via
// BuildGuardedEstimator, so a config that cannot build (or an estimator
// that emits garbage) yields a recorded error plus fallback-chain
// estimates instead of aborting or voiding the sweep. Cells whose primary
// builds cleanly carry reports bit-identical to RunConfigsParallel — the
// guard only rewrites answers it had to repair. Cells are returned in
// config order at any thread count.
std::vector<GuardedCellReport> RunConfigsGuarded(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options = {});

}  // namespace selest

#endif  // SELEST_EVAL_PARALLEL_EXPERIMENT_H_
