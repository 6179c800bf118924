#include "src/eval/parallel_experiment.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "src/exec/parallel_for.h"
#include "src/util/check.h"

namespace selest {
namespace {

// Query chunks per worker; more chunks even out per-chunk cost skew
// without affecting results (chunk boundaries never change values).
constexpr size_t kChunksPerThread = 4;

// Resolves the options to a pool: the shared default pool, a dedicated
// transient pool kept alive by `owned`, or nullptr for the serial path.
ThreadPool* ResolvePool(const ParallelExecOptions& options,
                        std::unique_ptr<ThreadPool>& owned) {
  if (options.threads == 1) return nullptr;
  if (options.threads == 0) return &ThreadPool::Default();
  owned = std::make_unique<ThreadPool>(options.threads);
  return owned.get();
}

// Query chunks per fan-out. The serial path keeps the query file whole,
// so each estimator answers it in one batch.
size_t NumChunks(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads() * kChunksPerThread;
}

// A config's expected build cost as a static class, never a timing:
// h-DPI's O(n²) ψ̂ pair sum, then v-optimal's O(c²·B) program, the hybrid,
// the kernel estimators, and the rest (well under a millisecond each).
int BuildCostClass(const EstimatorConfig& config) {
  if (config.smoothing == SmoothingRule::kDirectPlugIn) return 4;
  switch (config.kind) {
    case EstimatorKind::kVOptimal:
      return 3;
    case EstimatorKind::kHybrid:
      return 2;
    case EstimatorKind::kKernel:
    case EstimatorKind::kAdaptiveKernel:
      return 1;
    default:
      return 0;
  }
}

// One query chunk [begin, end) of a batch estimate, on the calling thread.
void EstimateChunk(const SelectivityEstimator& estimator,
                   std::span<const RangeQuery> queries, std::span<double> out,
                   size_t begin, size_t end) {
  estimator.EstimateSelectivityBatch(queries.subspan(begin, end - begin),
                                     out.subspan(begin, end - begin));
}

}  // namespace

ErrorReport EvaluateParallel(const SelectivityEstimator& estimator,
                             std::span<const RangeQuery> queries,
                             const GroundTruth& truth,
                             const ParallelExecOptions& options) {
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ResolvePool(options, owned);
  std::vector<size_t> exact_counts(queries.size());
  std::vector<double> estimates(queries.size());
  ParallelFor(pool, queries.size(), NumChunks(pool),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) {
                  exact_counts[i] = truth.Count(queries[i]);
                }
                EstimateChunk(estimator, queries, estimates, begin, end);
              });
  return AccumulateReport(exact_counts, estimates, truth.num_records());
}

void EstimateParallel(const SelectivityEstimator& estimator,
                      std::span<const RangeQuery> queries,
                      std::span<double> out) {
  SELEST_CHECK_EQ(queries.size(), out.size());
  ThreadPool* pool = &ThreadPool::Default();
  ParallelFor(pool, queries.size(), NumChunks(pool),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                EstimateChunk(estimator, queries, out, begin, end);
              });
}

std::vector<StatusOr<ErrorReport>> RunConfigsParallel(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options) {
  SELEST_CHECK(setup.data != nullptr);
  const GroundTruth truth(*setup.data);
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ResolvePool(options, owned);
  const std::span<const RangeQuery> queries(setup.queries);

  // Phase 1 — the exact counts, shared by every config, over query chunks.
  std::vector<size_t> exact_counts(queries.size());
  ParallelFor(pool, queries.size(), NumChunks(pool),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) {
                  exact_counts[i] = truth.Count(queries[i]);
                }
              });

  // Phase 2 — one task per config, costliest build first (the caller takes
  // it). A task builds, answers every query in one batch, reduces into its
  // config's own slot and frees the estimator.
  std::vector<size_t> order(configs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return BuildCostClass(configs[a]) > BuildCostClass(configs[b]);
  });
  std::vector<StatusOr<ErrorReport>> results(configs.size(), ErrorReport{});
  ParallelFor(pool, order.size(), order.size(),
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t k = begin; k < end; ++k) {
                  const size_t c = order[k];
                  auto built = BuildEstimator(setup.sample, setup.domain(),
                                              configs[c]);
                  if (!built.ok()) {
                    results[c] = built.status();
                    continue;
                  }
                  std::vector<double> estimates(queries.size());
                  built.value()->EstimateSelectivityBatch(queries, estimates);
                  results[c] = AccumulateReport(exact_counts, estimates,
                                                truth.num_records());
                }
              });
  return results;
}

std::vector<GuardedCellReport> RunConfigsGuarded(
    const ExperimentSetup& setup, std::span<const EstimatorConfig> configs,
    const ParallelExecOptions& options) {
  SELEST_CHECK(setup.data != nullptr);
  std::vector<GuardedCellReport> cells(configs.size());
  if (configs.empty()) return cells;

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = ResolvePool(options, owned);
  const size_t num_chunks = NumChunks(pool);

  const GroundTruth truth(*setup.data);
  const std::span<const RangeQuery> queries(setup.queries);

  // Phase 1a — exact counts, once (they are estimator-independent). A
  // failure here (an injected `exec/task` fault) poisons every cell the
  // same way, recorded per cell below.
  std::vector<size_t> exact_counts(queries.size());
  const Status counts_status =
      TryParallelFor(pool, queries.size(), num_chunks,
                     [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
                       for (size_t i = begin; i < end; ++i) {
                         exact_counts[i] = truth.Count(queries[i]);
                       }
                       return Status::Ok();
                     });

  // Phase 1b — guarded builds, serial in config order so the `est/build`
  // fault point sees a schedule-independent hit sequence.
  std::vector<std::unique_ptr<GuardedEstimator>> chains(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    auto build =
        BuildGuardedEstimator(setup.sample, setup.domain(), configs[c]);
    if (!build.ok()) {
      // Nothing can answer (malformed domain): the cell records the error
      // and keeps its zeroed report.
      cells[c].primary_status = build.status();
      cells[c].eval_status = build.status();
      cells[c].estimator_name = "unavailable";
      continue;
    }
    cells[c].primary_status = build.value().primary_status;
    chains[c] = std::move(build.value().estimator);
  }

  // Phase 2 — one fan-out per config (per-config error attribution), each
  // parallel over query chunks. Serial fan-outs share one estimate buffer.
  std::vector<double> estimates(queries.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    if (chains[c] == nullptr) continue;
    GuardedCellReport& cell = cells[c];
    cell.estimator_name = chains[c]->name();
    Status eval = counts_status;
    if (eval.ok()) {
      const GuardedEstimator& chain = *chains[c];
      eval = TryParallelFor(
          pool, queries.size(), num_chunks,
          [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
            EstimateChunk(chain, queries, estimates, begin, end);
            return Status::Ok();
          });
    }
    cell.eval_status = eval;
    cell.stats = chains[c]->stats();
    if (eval.ok()) {
      cell.report =
          AccumulateReport(exact_counts, estimates, truth.num_records());
    }
  }
  return cells;
}

}  // namespace selest
