#include "src/eval/experiment.h"

#include <limits>
#include <memory>

#include "src/eval/parallel_experiment.h"
#include "src/sample/sampler.h"
#include "src/util/check.h"

namespace selest {

StatusOr<ExperimentSetup> TryMakeSetup(const Dataset& data,
                                       const ProtocolConfig& protocol) {
  Rng rng(protocol.seed);
  Rng sample_rng = rng.Fork();
  Rng query_rng = rng.Fork();
  ExperimentSetup setup;
  setup.data = &data;
  SELEST_ASSIGN_OR_RETURN(
      setup.sample, TrySampleWithoutReplacement(
                        data.values(), protocol.sample_size, sample_rng));
  WorkloadConfig workload;
  workload.query_fraction = protocol.query_fraction;
  workload.num_queries = protocol.num_queries;
  SELEST_ASSIGN_OR_RETURN(setup.queries,
                          TryGenerateWorkload(data, workload, query_rng));
  return setup;
}

ExperimentSetup MakeSetup(const Dataset& data,
                          const ProtocolConfig& protocol) {
  auto setup = TryMakeSetup(data, protocol);
  SELEST_CHECK(setup.ok());
  return std::move(setup).value();
}

StatusOr<ErrorReport> RunConfig(const ExperimentSetup& setup,
                                const EstimatorConfig& config) {
  SELEST_CHECK(setup.data != nullptr);
  SELEST_ASSIGN_OR_RETURN(
      const std::unique_ptr<SelectivityEstimator> estimator,
      BuildEstimator(setup.sample, setup.domain(), config));
  const GroundTruth truth(*setup.data);
  // The parallel evaluation is bit-identical to the serial one at any
  // thread count (fixed-order reduction; see eval/parallel_experiment.h),
  // so the default runner — and with it the oracle objectives below —
  // always goes through it on the shared pool.
  return EvaluateParallel(*estimator, setup.queries, truth);
}

std::function<double(int)> MakeBinCountObjective(const ExperimentSetup& setup,
                                                 EstimatorConfig config) {
  config.smoothing = SmoothingRule::kFixed;
  return [&setup, config](int num_bins) mutable {
    config.fixed_smoothing = static_cast<double>(num_bins);
    auto report = RunConfig(setup, config);
    if (!report.ok()) return std::numeric_limits<double>::infinity();
    return report.value().mean_relative_error;
  };
}

std::function<double(double)> MakeBandwidthObjective(
    const ExperimentSetup& setup, EstimatorConfig config) {
  config.smoothing = SmoothingRule::kFixed;
  return [&setup, config](double bandwidth) mutable {
    config.fixed_smoothing = bandwidth;
    auto report = RunConfig(setup, config);
    if (!report.ok()) return std::numeric_limits<double>::infinity();
    return report.value().mean_relative_error;
  };
}

}  // namespace selest
