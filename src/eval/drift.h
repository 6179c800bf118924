// Drift replay: query-driven vs static estimators under a shifting column.
//
// The paper's comparison (and our golden figures) scores estimators
// against a frozen dataset; every static estimator decays silently the
// moment the data moves. This engine makes that decay measurable: it
// replays a seeded query workload while the underlying column drifts
// through one of three scenarios —
//
//   kAbruptSwap   — the distribution is swapped wholesale mid-replay
//                   (normal(30, 8) → normal(72, 5));
//   kLinearShift  — the mean slides linearly between the same endpoints;
//   kZipfSweep    — a discrete Zipf column whose skew parameter sweeps
//                   0.4 → 1.6 (mass migrates into the head).
//
// Static estimators are built once from a sample of the *initial* data
// and only predict. Query-driven estimators start from the uniform prior,
// predict, then observe the true selectivity of each executed query. Per
// estimator the replay records the rolling-window MRE after every query —
// the error-vs-queries-observed curve of DESIGN.md §14.4 — plus the
// convergence point where a query-driven curve drops below the best
// static curve for the remainder of the replay.
//
// Everything is seeded and deterministic: same config, same curves.
#ifndef SELEST_EVAL_DRIFT_H_
#define SELEST_EVAL_DRIFT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace selest {

enum class DriftScenario {
  kAbruptSwap,
  kLinearShift,
  kZipfSweep,
};

const char* DriftScenarioName(DriftScenario scenario);

struct DriftConfig {
  DriftScenario scenario = DriftScenario::kAbruptSwap;
  uint64_t seed = 17;
  // Rows materialized per drift step.
  size_t rows = 20000;
  // Queries replayed (predict → learn) across the whole drift.
  size_t num_queries = 600;
  // Distinct data states the drift passes through; the replay advances one
  // step every num_queries / num_steps queries.
  size_t num_steps = 12;
  // Rolling window (in queries) for the MRE curves.
  size_t window = 60;
  // Grid resolution of the query-driven estimators.
  int num_bins = 64;
  // Sample size the static estimators are built from (initial data).
  size_t static_sample_size = 2000;
};

// One estimator's error-vs-queries curve over the replay.
struct DriftCurve {
  std::string estimator;
  bool query_driven = false;
  // Rolling MRE over the trailing `window` queries, one point per query
  // (queries whose exact result is empty are skipped, as in eval/metrics).
  std::vector<double> windowed_mre;
  double final_mre = 0.0;    // windowed MRE at the end of the replay
  double overall_mre = 0.0;  // MRE over every valid query of the replay
  // 1-based count of observed queries after which this curve stays at or
  // below the best static curve for the rest of the replay; 0 when it
  // always was, num_queries + 1 when it never converges. Meaningful for
  // query-driven curves (static curves compare against their own best).
  size_t convergence_query = 0;
  // Mean wall time of one EstimateSelectivity call during the replay.
  double mean_estimate_ns = 0.0;
};

struct DriftResult {
  DriftScenario scenario;
  size_t num_queries = 0;
  std::vector<DriftCurve> curves;
  // Name and final windowed MRE of the best (lowest final) static curve.
  std::string best_static;
  double best_static_final_mre = 0.0;
};

// Runs one drift replay. Deterministic for a fixed config.
StatusOr<DriftResult> RunDriftReplay(const DriftConfig& config);

// Writes the results in google-benchmark shape (one "benchmarks" row per
// scenario × estimator carrying final/overall MRE and the convergence
// query) plus a "drift" array with downsampled error-vs-queries curves.
// The file is diffable by tools/bench_diff.py, which flags regressions in
// the convergence point alongside the timing ratios.
Status WriteDriftJson(const std::vector<DriftResult>& results,
                      const std::string& path);

}  // namespace selest

#endif  // SELEST_EVAL_DRIFT_H_
