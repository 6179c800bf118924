// Micro-benchmark: estimator construction cost from a sample.
//
// A live-server refresh rebuilds non-mergeable estimators from the
// reservoir; this measures build cost as a function of the sample size for
// each family, including the smoothing-rule cost (the O(n²) direct plug-in
// is the expensive outlier). Next to each build, BM_SnapshotLoad_<kind>
// decodes a snapshot of the same build from in-memory bytes (file IO
// excluded): the serialize-clone a merge refresh or a feedback publish
// pays, and what a restart from a proven snapshot pays instead of a build.
// BM_BuildHeadline/<config> builds the kernel family from a headline file's
// sample instead, whose domain edges hold mass.
#include <benchmark/benchmark.h>

#include "src/data/domain.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/eval/experiment.h"
#include "src/eval/paper_data.h"
#include "src/smoothing/direct_plug_in.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1.0e6);

std::vector<double> MakeSample(size_t n) {
  Rng rng(7);
  std::vector<double> sample(n);
  for (double& x : sample) {
    x = 0.5e6 + 1.2e5 * rng.NextGaussian();
    x = kDomain.Clamp(x);
  }
  return sample;
}

void BuildBenchmark(benchmark::State& state, EstimatorKind kind) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  EstimatorConfig config;
  config.kind = kind;
  for (auto _ : state) {
    auto est = BuildEstimator(sample, kDomain, config);
    benchmark::DoNotOptimize(est);
  }
}

void SnapshotLoadBenchmark(benchmark::State& state, EstimatorKind kind) {
  EstimatorConfig config;
  config.kind = kind;
  auto built = BuildEstimator(
      MakeSample(static_cast<size_t>(state.range(0))), kDomain, config);
  if (!built.ok()) {
    state.SkipWithError(built.status().ToString().c_str());
    return;
  }
  auto bytes = SnapshotEstimator(*built.value());
  if (!bytes.ok()) {
    state.SkipWithError(bytes.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = LoadEstimatorSnapshot(bytes.value());
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(bytes.value().size());
}

// BM_Build<name> and BM_SnapshotLoad_<name> over the same sample sizes;
// options chained after the macro apply to the load rows.
#define BUILD_AND_LOAD(name, kind, max_size)                               \
  void BM_Build##name(benchmark::State& state) {                           \
    BuildBenchmark(state, EstimatorKind::kind);                            \
  }                                                                        \
  BENCHMARK(BM_Build##name)->Range(1 << 8, max_size);                      \
  void BM_SnapshotLoad_##name(benchmark::State& state) {                   \
    SnapshotLoadBenchmark(state, EstimatorKind::kind);                     \
  }                                                                        \
  BENCHMARK(BM_SnapshotLoad_##name)->Range(1 << 8, max_size)

// The histogram snapshot loads (0.7–4 µs) and BuildEquiWidth/32768 spread
// up to ±60% between recordings at a 0.2 s minimum, so they run longer.
// google-benchmark appends "/min_time:1.000" to their names;
// tools/bench_diff.py drops it when matching rows.
constexpr double kNoisyRowMinTime = 1.0;

void BM_BuildEquiWidth(benchmark::State& state) {
  BuildBenchmark(state, EstimatorKind::kEquiWidth);
}
BENCHMARK(BM_BuildEquiWidth)->Range(1 << 8, 1 << 12);
BENCHMARK(BM_BuildEquiWidth)->Arg(1 << 15)->MinTime(kNoisyRowMinTime);
void BM_SnapshotLoad_EquiWidth(benchmark::State& state) {
  SnapshotLoadBenchmark(state, EstimatorKind::kEquiWidth);
}
BENCHMARK(BM_SnapshotLoad_EquiWidth)
    ->Range(1 << 8, 1 << 15)
    ->MinTime(kNoisyRowMinTime);
BUILD_AND_LOAD(EquiDepth, kEquiDepth, 1 << 15)->MinTime(kNoisyRowMinTime);
BUILD_AND_LOAD(MaxDiff, kMaxDiff, 1 << 15)->MinTime(kNoisyRowMinTime);
BUILD_AND_LOAD(Kernel, kKernel, 1 << 15);
BUILD_AND_LOAD(Hybrid, kHybrid, 1 << 13);
BUILD_AND_LOAD(Ash, kAverageShifted, 1 << 15);
BUILD_AND_LOAD(AdaptiveKernel, kAdaptiveKernel, 1 << 15);

// The Fig. 12 protocol's 2,000-row sample of rr2(22), a TIGER-like file
// with mass up to both domain edges and density steps inside. The
// synthetic Gaussian above puts almost none near its edges, so its
// boundary strips and pilots cost far less than on real data.
void BM_BuildHeadline(benchmark::State& state, EstimatorKind kind,
                      SmoothingRule rule) {
  static const Dataset data = MakePaperDataset("rr2(22)").value();
  ProtocolConfig protocol;
  protocol.seed = 17;
  const ExperimentSetup setup = MakeSetup(data, protocol);
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = rule;
  for (auto _ : state) {
    auto est = BuildEstimator(setup.sample, setup.domain(), config);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK_CAPTURE(BM_BuildHeadline, kernel_ns, EstimatorKind::kKernel,
                  SmoothingRule::kNormalScale);
BENCHMARK_CAPTURE(BM_BuildHeadline, kernel_dpi2, EstimatorKind::kKernel,
                  SmoothingRule::kDirectPlugIn);
BENCHMARK_CAPTURE(BM_BuildHeadline, hybrid, EstimatorKind::kHybrid,
                  SmoothingRule::kNormalScale);
BENCHMARK_CAPTURE(BM_BuildHeadline, adaptive_kernel,
                  EstimatorKind::kAdaptiveKernel,
                  SmoothingRule::kNormalScale);

void BM_DirectPlugInBandwidth(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DirectPlugInBandwidth(sample, kDomain, Kernel(), 2));
  }
}
BENCHMARK(BM_DirectPlugInBandwidth)->Range(1 << 8, 1 << 12);

}  // namespace
}  // namespace selest
