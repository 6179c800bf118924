// The ANALYZE-and-score sweep: cells of (setup × estimator configs) run
// through RunConfigsParallel, plus a serial traced replay that splits one
// pass into its truth / build / estimate / reduce phases.
#ifndef PERFBENCH_SWEEP_H_
#define PERFBENCH_SWEEP_H_

#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/est/estimator_factory.h"
#include "src/eval/experiment.h"

namespace perfbench {

struct LabeledConfig {
  std::string label;  // metric suffix, e.g. "kernel_dpi2"
  selest::EstimatorConfig config;
};

// Every static estimator kind under h-NS, plus h-DPI2 for equi-width and
// the kernel estimator (boundary kernels for kernel and hybrid).
std::vector<LabeledConfig> PaperSweepConfigs();

struct SweepCell {
  const selest::ExperimentSetup* setup = nullptr;
  std::vector<LabeledConfig> configs;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> mres;     // per (cell, config), cell-major
  std::vector<double> cell_ms;  // wall time of each RunConfigsParallel call
};

class Sweep {
 public:
  explicit Sweep(std::vector<SweepCell> cells) : cells_(std::move(cells)) {}

  // One pass over every cell. `threads` as ParallelExecOptions::threads
  // (1 = the serial reference, run on the calling thread). With
  // `rotate_cores`, the calling thread moves to the next core before each
  // cell, so a slow spell of one core slows a few cells, not the pass.
  // Non-OK cells are reported to `report`.
  PassResult Pass(size_t threads, Report& report,
                  bool rotate_cores = false) const;

  // Mean over cells of the mean MRE of each cell's configs.
  double MeanCellMre(const std::vector<double>& mres) const;

  // Compares a pass's MREs bit-for-bit against the serial reference.
  uint64_t Mismatches(const std::vector<double>& mres,
                      const std::vector<double>& reference) const;

  // Serial replay of one pass through each layer's own entry point
  // (GroundTruth::Count, BuildEstimator, EstimateSelectivityBatch,
  // AccumulateReport) on a one-worker pool, with spans; fills the eval.*,
  // est.build_ms.*, est.batch_ns_per_query, ground_truth.count_ns,
  // smoothing.dpi_ms and eval.critical_path_share metrics.
  // `cell_ms_median` is the per-cell RunConfigsParallel wall time of the
  // parallel passes (for the critical-path share).
  void SerialReplay(const std::vector<double>& cell_ms_median,
                    Report& report) const;

  size_t num_cells() const { return cells_.size(); }
  size_t num_results() const;

 private:
  std::vector<SweepCell> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SWEEP_H_
