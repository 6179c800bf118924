// Micro-benchmark: per-query estimation cost, plus whole-sweep wall-clocks
// (Fig. 12, and one perfbench `analyze` cell) across thread counts.
//
// §3.2 gives the kernel selectivity estimator a Θ(n) scan cost and notes
// that a search-tree organization reduces it to O(log n + k). The kernel
// family here goes further: the summed Epanechnikov CDF is tabulated as a
// piecewise cubic, so a query costs two O(log n) lookups whatever the k
// fringe samples (BM_KernelIndexed, BM_KernelBoundaryKernels,
// BM_AdaptiveKernel, BM_Hybrid); Algorithm 1 is the Θ(n) literal
// transcription. Histograms answer from two edge searches over the
// cumulative bin masses, however many bins the query covers
// (BM_EquiWidthHistogram, BM_EquiDepthHistogram), and ASH from one such
// table over the union of its shifted edges (BM_AverageShiftedHistogram).
// Every table's searches go through a cell directory (util/
// cell_directory.h): O(1) where its keys spread evenly, O(log n) at worst.
//
// BM_PsiFunctional times the O(n²) ψ̂ pair sum behind the h-DPI rules on
// each SIMD tier against the per-pair loop it replaced.
//
// BM_Fig12SweepWallClock and BM_PaperSweepWallClock track the parallel
// trajectory: their JSON output (--benchmark_format=json) carries
// `threads`, `speedup_vs_serial`, and `mre_bit_identical` counters so
// successive BENCH_*.json files record how the parallel runner scales — and
// that no thread count, one included, moved an MRE off the per-query serial
// reference (Evaluate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/data/domain.h"
#include "src/est/adaptive_kernel_estimator.h"
#include "src/est/average_shifted_histogram.h"
#include "src/est/equi_depth_histogram.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/estimator_factory.h"
#include "src/est/guarded_estimator.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/est/sampling_estimator.h"
#include "src/eval/metrics.h"
#include "src/eval/paper_data.h"
#include "src/eval/parallel_experiment.h"
#include "src/smoothing/direct_plug_in.h"
#include "src/smoothing/normal_scale.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/stats.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 1.0e6);

std::vector<double> MakeSample(size_t n) {
  Rng rng(42);
  std::vector<double> sample(n);
  for (double& x : sample) x = kDomain.width() * rng.NextDouble();
  return sample;
}

// One percent queries at rotating positions.
RangeQuery NextQuery(Rng& rng) {
  const double width = 0.01 * kDomain.width();
  const double a = (kDomain.width() - width) * rng.NextDouble();
  return {a, a + width};
}

// Fixed bandwidth well under half the query width so the Algorithm 1
// variant's b − a >= 2h precondition holds at every sample size.
constexpr double kBenchBandwidth = 2000.0;

void BM_KernelIndexed(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = kBenchBandwidth;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  Rng rng(1);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_KernelIndexed)->Range(1 << 10, 1 << 20);

void BM_KernelAlgorithm1LinearScan(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = kBenchBandwidth;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  Rng rng(2);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivityAlgorithm1(q.a, q.b));
  }
}
BENCHMARK(BM_KernelAlgorithm1LinearScan)->Range(1 << 10, 1 << 20);

void BM_KernelBoundaryKernels(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = NormalScaleBandwidth(sample, kDomain);
  options.boundary = BoundaryPolicy::kBoundaryKernel;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  Rng rng(3);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_KernelBoundaryKernels)->Range(1 << 10, 1 << 18);

// The other two kernel-family estimators on the standard 2,000-record
// sample, each at its own default bandwidth rule: per-sample bandwidths for
// the adaptive kernel, per-cell kernels with boundary kernels for the hybrid.
void BM_AdaptiveKernel(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = AdaptiveKernelEstimator::Create(sample, kDomain, {});
  Rng rng(7);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_AdaptiveKernel)->Arg(2000);

void BM_Hybrid(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = HybridEstimator::Create(sample, kDomain, {});
  Rng rng(8);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_Hybrid)->Arg(2000);

void BM_EquiWidthHistogram(benchmark::State& state) {
  const auto sample = MakeSample(2000);
  auto est = EquiWidthHistogram::Create(sample, kDomain,
                                        static_cast<int>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_EquiWidthHistogram)->Range(8, 8 << 10);

// The average shifted histogram as the paper's final comparison runs it (ten
// shifts at the h-NS bin count), and the equi-depth histogram at the h-NS
// bin count, on the standard 2,000-record sample.
void BM_AverageShiftedHistogram(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = AverageShiftedHistogram::Create(
      sample, kDomain, NormalScaleNumBins(sample, kDomain), 10);
  Rng rng(9);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_AverageShiftedHistogram)->Arg(2000);

void BM_EquiDepthHistogram(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = EquiDepthHistogram::Create(sample, kDomain,
                                        NormalScaleNumBins(sample, kDomain));
  Rng rng(10);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_EquiDepthHistogram)->Arg(2000);

// --- Guarded-vs-raw overhead on the kernel hot path ---
//
// Per healthy query the guard adds two NaN tests, an inversion test, two
// domain clamps, a second virtual call, and range and finiteness checks
// on the answer; it writes no counter. The robustness budget is <5% on
// the kernel hot path; `guard_overhead_pct` records the measured figure
// (raw and guarded timed back to back on the same pre-generated query
// stream each iteration). The guard's cost is fixed per query, so the
// shorter the read the larger its share: 19–21% of a kernel read that
// searches through a cell directory, over that budget (ROADMAP item 6).
void BM_KernelGuardedOverhead(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  KernelEstimatorOptions options;
  options.bandwidth = kBenchBandwidth;
  // Both sides dispatch through the SelectivityEstimator base, exactly as
  // the experiment runners call estimators; the delta is then the guard
  // alone, not a devirtualization artifact.
  auto raw_kernel = KernelEstimator::Create(sample, kDomain, options);
  const std::unique_ptr<SelectivityEstimator> raw =
      std::make_unique<KernelEstimator>(std::move(raw_kernel).value());
  auto inner = KernelEstimator::Create(sample, kDomain, options);
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  chain.push_back(
      std::make_unique<KernelEstimator>(std::move(inner).value()));
  const GuardedEstimator guarded(std::move(chain), kDomain);

  Rng rng(6);
  std::vector<RangeQuery> queries(4096);
  for (RangeQuery& q : queries) q = NextQuery(rng);

  double raw_seconds = 0.0;
  double guarded_seconds = 0.0;
  for (auto _ : state) {
    double acc = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const RangeQuery& q : queries) {
      acc += raw->EstimateSelectivity(q.a, q.b);
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (const RangeQuery& q : queries) {
      acc += guarded.EstimateSelectivity(q.a, q.b);
    }
    const auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(acc);
    raw_seconds += std::chrono::duration<double>(t1 - t0).count();
    guarded_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * queries.size()));
  state.counters["guard_overhead_pct"] =
      raw_seconds > 0.0
          ? 100.0 * (guarded_seconds - raw_seconds) / raw_seconds
          : 0.0;
}
BENCHMARK(BM_KernelGuardedOverhead)->Arg(1 << 11)->Arg(1 << 16);

void BM_SamplingEstimator(benchmark::State& state) {
  const auto sample = MakeSample(static_cast<size_t>(state.range(0)));
  auto est = SamplingEstimator::Create(sample);
  Rng rng(5);
  for (auto _ : state) {
    const RangeQuery q = NextQuery(rng);
    benchmark::DoNotOptimize(est->EstimateSelectivity(q.a, q.b));
  }
}
BENCHMARK(BM_SamplingEstimator)->Range(1 << 10, 1 << 20);

// --- The batch read: one EstimateSelectivity call per query (DESIGN.md §7) ---

std::vector<RangeQuery> BatchQueries(size_t num_queries) {
  Rng rng(9);
  std::vector<RangeQuery> queries(num_queries);
  for (RangeQuery& q : queries) q = NextQuery(rng);
  return queries;
}

constexpr size_t kBatchSampleSize = 1 << 16;
constexpr size_t kBatchQueries = 4096;

// Two bin-count regimes: tens of bins is the paper's own configuration
// (h-NS on small samples; 1% queries touch 1–2 bins), while 1024 bins makes
// every query cover ~11 bins. The cumulative-mass lookup costs two edge
// searches in both, so the gain over the seed's per-bin walk
// (`speedup_vs_prepr`) grows with the bins a query covers.
// `bit_identical` checks the batch against the per-query answers on every
// iteration.
void BM_BatchEquiWidth(benchmark::State& state) {
  static auto* cache = new std::map<int64_t, const EquiWidthHistogram*>();
  const EquiWidthHistogram*& slot = (*cache)[state.range(0)];
  if (slot == nullptr) {
    auto built = EquiWidthHistogram::Create(MakeSample(kBatchSampleSize),
                                            kDomain,
                                            static_cast<int>(state.range(0)));
    if (!built.ok()) {
      std::fprintf(stderr, "equi-width build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    slot = new EquiWidthHistogram(std::move(built).value());
  }
  const EquiWidthHistogram* est = slot;
  // The seed's BinnedDensity::Selectivity, std::lower_bound and all — the
  // pre-PR scalar baseline the acceptance speedup is quoted against.
  const auto prepr = [est](const RangeQuery& q) {
    const auto& edges = est->bins().edges();
    const auto& counts = est->bins().counts();
    if (q.a > q.b) return 0.0;
    double mass = 0.0;
    const size_t first = static_cast<size_t>(
        std::lower_bound(edges.begin(), edges.end(), q.a) - edges.begin());
    size_t i = first == 0 ? 0 : first - 1;
    for (; i < counts.size() && edges[i] <= q.b; ++i) {
      const double lo = edges[i];
      const double hi = edges[i + 1];
      const double width = hi - lo;
      if (width <= 0.0) {
        if (lo >= q.a && lo <= q.b) mass += counts[i];
        continue;
      }
      const double overlap = std::min(q.b, hi) - std::max(q.a, lo);
      if (overlap <= 0.0) continue;
      mass += counts[i] * (overlap / width);
    }
    return std::clamp(mass / est->bins().total_count(), 0.0, 1.0);
  };
  const std::vector<RangeQuery> queries = BatchQueries(kBatchQueries);
  std::vector<double> reference(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    reference[i] = est->EstimateSelectivity(queries[i].a, queries[i].b);
  }
  std::vector<double> out(queries.size());

  double batch_seconds = 0.0;
  double prepr_seconds = 0.0;
  bool identical = true;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    est->EstimateSelectivityBatch(queries, out);
    const auto t1 = std::chrono::steady_clock::now();
    double acc = 0.0;
    for (const RangeQuery& q : queries) acc += prepr(q);
    const auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(acc);
    batch_seconds += std::chrono::duration<double>(t1 - t0).count();
    prepr_seconds += std::chrono::duration<double>(t2 - t1).count();
    if (out != reference) identical = false;
  }
  if (!identical) {
    state.SkipWithError("batch diverged from the per-query answers");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.counters["bit_identical"] = identical ? 1.0 : 0.0;
  state.counters["speedup_vs_prepr"] =
      batch_seconds > 0.0 ? prepr_seconds / batch_seconds : 0.0;
}
BENCHMARK(BM_BatchEquiWidth)
    ->ArgName("bins")
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// --- The ψ̂ pair sum behind h-DPI (DESIGN.md §2, §12) ---
//
// One iteration makes every ψ̂ call of the h-DPI2 kernel bandwidth on the
// eight headline samples (2,000 records each, Fig. 12 protocol): s = 6,
// then s = 4, at the ladder's pilot bandwidths, on the row's tier.
// `speedup_vs_scalar` and `speedup_vs_prepr` divide the time of the same
// calls on the scalar tier and in a replica of the per-pair std::exp loop
// the kernel replaced (each the fastest of three passes, taken once), and
// `bit_identical` re-asserts that the tier returns the scalar tier's bits.

struct PsiCall {
  const std::vector<double>* sample = nullptr;
  int s = 0;
  double g = 0.0;
};

const std::vector<PsiCall>& GetPsiCalls() {
  static const std::vector<PsiCall>* calls = [] {
    auto* samples = new std::vector<std::vector<double>>();
    for (const std::string& name : HeadlineFileNames()) {
      auto data = MakePaperDataset(name);
      if (!data.ok()) {
        std::fprintf(stderr, "loading %s failed: %s\n", name.c_str(),
                     data.status().ToString().c_str());
        std::exit(1);
      }
      ProtocolConfig protocol;
      protocol.seed = 17;
      samples->push_back(MakeSetup(*data, protocol).sample);
    }
    auto* out = new std::vector<PsiCall>();
    for (const std::vector<double>& sample : *samples) {
      // DirectPlugInBandwidth's stage ladder, stages = 2.
      double psi_next = NormalScalePsi(8, NormalScaleSigma(sample));
      for (int s : {6, 4}) {
        const double phi0 = kPsiHermite[s / 2 - 1][s / 2 - 1] /
                            std::sqrt(2.0 * std::numbers::pi);
        const double g = std::pow(
            -2.0 * phi0 / (psi_next * static_cast<double>(sample.size())),
            1.0 / (s + 3.0));
        out->push_back({&sample, s, g});
        psi_next = EstimatePsiFunctional(sample, s, g);
      }
    }
    return out;
  }();
  return *calls;
}

// EstimatePsiFunctional before the pair-sum kernel: two divides, one
// std::exp and one switch per pair, into one running sum.
double SeedLoopPsi(std::span<const double> x, int s, double g) {
  constexpr double kSqrt2Pi = 2.506628274631000502;
  const auto derivative = [s](double z) {
    const double phi = std::exp(-0.5 * z * z) / kSqrt2Pi;
    const double z2 = z * z;
    switch (s) {
      case 2:
        return (z2 - 1.0) * phi;
      case 4:
        return (z2 * z2 - 6.0 * z2 + 3.0) * phi;
      case 6:
        return (z2 * z2 * z2 - 15.0 * z2 * z2 + 45.0 * z2 - 15.0) * phi;
      default:
        return (z2 * z2 * z2 * z2 - 28.0 * z2 * z2 * z2 + 210.0 * z2 * z2 -
                420.0 * z2 + 105.0) *
               phi;
    }
  };
  const size_t n = x.size();
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += derivative(0.0);
    for (size_t j = i + 1; j < n; ++j) {
      sum += 2.0 * derivative((x[i] - x[j]) / g);
    }
  }
  return sum / (static_cast<double>(n) * static_cast<double>(n) *
                std::pow(g, s + 1.0));
}

// Seconds to make every call, results into `out`; the tier only matters
// when `seed_loop` is false.
double TimePsiCalls(SimdTier tier, bool seed_loop, std::vector<double>& out) {
  const std::vector<PsiCall>& calls = GetPsiCalls();
  const ScopedSimdTier scoped(tier);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < calls.size(); ++c) {
    const PsiCall& call = calls[c];
    out[c] = seed_loop ? SeedLoopPsi(*call.sample, call.s, call.g)
                       : EstimatePsiFunctional(*call.sample, call.s, call.g);
  }
  benchmark::DoNotOptimize(out.data());
  benchmark::ClobberMemory();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The scalar-tier and seed-loop references: results, and the fastest of
// three timed passes each.
struct PsiBaseline {
  std::vector<double> scalar_out;
  double scalar_seconds = 0.0;
  double seed_seconds = 0.0;
};

const PsiBaseline& GetPsiBaseline() {
  static const PsiBaseline* baseline = [] {
    auto* out = new PsiBaseline();
    const size_t num_calls = GetPsiCalls().size();
    out->scalar_out.resize(num_calls);
    std::vector<double> seed_out(num_calls);
    out->scalar_seconds = out->seed_seconds = 1e300;
    for (int pass = 0; pass < 3; ++pass) {
      out->scalar_seconds =
          std::min(out->scalar_seconds,
                   TimePsiCalls(SimdTier::kScalar, false, out->scalar_out));
      out->seed_seconds = std::min(
          out->seed_seconds, TimePsiCalls(SimdTier::kScalar, true, seed_out));
    }
    return out;
  }();
  return *baseline;
}

void BM_PsiFunctional(benchmark::State& state) {
  const auto tier = static_cast<SimdTier>(state.range(0));
  if (!SimdTierSupported(tier)) {
    state.SkipWithError("simd tier not supported on this host");
    return;
  }
  const PsiBaseline& baseline = GetPsiBaseline();
  std::vector<double> out(baseline.scalar_out.size());
  double seconds = 0.0;
  bool identical = true;
  for (auto _ : state) {
    seconds += TimePsiCalls(tier, false, out);
    // Exact comparison: the SIMD contract is bit-identity.
    if (out != baseline.scalar_out) identical = false;
  }
  if (!identical) {
    state.SkipWithError("vector tier diverged from the scalar reference");
  }
  const double per_iteration =
      seconds / static_cast<double>(state.iterations());
  state.counters["bit_identical"] = identical ? 1.0 : 0.0;
  state.counters["speedup_vs_scalar"] =
      per_iteration > 0.0 ? baseline.scalar_seconds / per_iteration : 0.0;
  state.counters["speedup_vs_prepr"] =
      per_iteration > 0.0 ? baseline.seed_seconds / per_iteration : 0.0;
}
BENCHMARK(BM_PsiFunctional)
    ->ArgName("tier")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- Whole sweeps across thread counts ---
//
// One sweep = a config list built from the Fig. 12 protocol's 2,000-record
// sample (seed 17) and scored on its 1,000 queries of 1% on one headline
// data file — builds and evaluation both included, exactly what
// RunConfigsParallel fans out. BM_Fig12SweepWallClock runs the four
// headline configs of Fig. 12 (equi-width h-NS, kernel h-DPI2 with
// boundary kernels, hybrid, ASH-10) on n(20). BM_PaperSweepWallClock runs
// the 13 configs of one perfbench `analyze` cell (PaperSweepConfigs in
// perfbench/src/sweep.cc) on rr2(22), where the two h-DPI2 builds set the
// critical path.

// A sweep and its serial reference: the `threads = 1` wall-clock, and the
// per-config MREs of the per-query serial reference (BuildEstimator +
// Evaluate, one EstimateSelectivity call per query) that every run,
// `threads = 1` included, must reproduce bit-identically.
struct SweepWorkload {
  explicit SweepWorkload(Dataset d) : data(std::move(d)) {}

  Dataset data;
  ExperimentSetup setup;
  std::vector<EstimatorConfig> configs;
  std::vector<double> reference_mres;
  double serial_seconds = 0.0;
};

const SweepWorkload* MakeSweepWorkload(const char* file,
                                       std::vector<EstimatorConfig> configs) {
  auto data = MakePaperDataset(file);
  if (!data.ok()) {
    std::fprintf(stderr, "loading %s failed: %s\n", file,
                 data.status().ToString().c_str());
    std::exit(1);
  }
  auto* out = new SweepWorkload(std::move(data).value());
  ProtocolConfig protocol;
  protocol.seed = 17;
  out->setup = MakeSetup(out->data, protocol);
  out->configs = std::move(configs);

  const GroundTruth truth(out->data);
  for (const EstimatorConfig& config : out->configs) {
    auto estimator =
        BuildEstimator(out->setup.sample, out->setup.domain(), config);
    if (!estimator.ok()) {
      std::fprintf(stderr, "%s sweep config failed: %s\n", file,
                   estimator.status().ToString().c_str());
      std::exit(1);
    }
    out->reference_mres.push_back(
        Evaluate(*estimator.value(), out->setup.queries, truth)
            .mean_relative_error);
  }
  ParallelExecOptions serial;
  serial.threads = 1;
  // Warm-up run sorts the ground-truth cache and faults in the sample.
  auto warm = RunConfigsParallel(out->setup, out->configs, serial);
  benchmark::DoNotOptimize(warm);
  constexpr int kReps = 3;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    auto reports = RunConfigsParallel(out->setup, out->configs, serial);
    benchmark::DoNotOptimize(reports);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  out->serial_seconds = elapsed.count() / kReps;
  return out;
}

void SweepWallClock(benchmark::State& state, const SweepWorkload& workload) {
  ParallelExecOptions options;
  options.threads = static_cast<size_t>(state.range(0));

  double seconds = 0.0;
  size_t iterations = 0;
  bool identical = true;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto reports =
        RunConfigsParallel(workload.setup, workload.configs, options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    seconds += elapsed.count();
    ++iterations;
    for (size_t c = 0; c < reports.size(); ++c) {
      // Exact comparison: the determinism contract is bit-identity.
      if (!reports[c].ok() ||
          reports[c]->mean_relative_error != workload.reference_mres[c]) {
        identical = false;
      }
    }
    benchmark::DoNotOptimize(reports);
  }
  if (!identical) {
    state.SkipWithError("MRE diverged from the per-query serial reference");
  }
  state.counters["threads"] = static_cast<double>(options.threads);
  state.counters["mre_bit_identical"] = identical ? 1.0 : 0.0;
  state.counters["speedup_vs_serial"] =
      iterations > 0 && seconds > 0.0
          ? workload.serial_seconds / (seconds / iterations)
          : 0.0;
}

void BM_Fig12SweepWallClock(benchmark::State& state) {
  static const SweepWorkload* workload = [] {
    std::vector<EstimatorConfig> configs(4);
    configs[0].kind = EstimatorKind::kEquiWidth;
    configs[1].kind = EstimatorKind::kKernel;
    configs[1].smoothing = SmoothingRule::kDirectPlugIn;
    configs[1].boundary = BoundaryPolicy::kBoundaryKernel;
    configs[2].kind = EstimatorKind::kHybrid;
    configs[2].boundary = BoundaryPolicy::kBoundaryKernel;
    configs[3].kind = EstimatorKind::kAverageShifted;
    configs[3].ash_shifts = 10;
    return MakeSweepWorkload("n(20)", std::move(configs));
  }();
  SweepWallClock(state, *workload);
}
BENCHMARK(BM_Fig12SweepWallClock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PaperSweepWallClock(benchmark::State& state) {
  static const SweepWorkload* workload = [] {
    const auto make = [](EstimatorKind kind, SmoothingRule rule) {
      EstimatorConfig config;
      config.kind = kind;
      config.smoothing = rule;
      config.boundary = BoundaryPolicy::kBoundaryKernel;
      config.ash_shifts = 10;
      return config;
    };
    const SmoothingRule ns = SmoothingRule::kNormalScale;
    const SmoothingRule dpi = SmoothingRule::kDirectPlugIn;
    return MakeSweepWorkload(
        "rr2(22)",
        {make(EstimatorKind::kSampling, ns), make(EstimatorKind::kUniform, ns),
         make(EstimatorKind::kEquiWidth, ns),
         make(EstimatorKind::kEquiDepth, ns), make(EstimatorKind::kMaxDiff, ns),
         make(EstimatorKind::kAverageShifted, ns),
         make(EstimatorKind::kKernel, ns), make(EstimatorKind::kHybrid, ns),
         make(EstimatorKind::kVOptimal, ns),
         make(EstimatorKind::kAdaptiveKernel, ns),
         make(EstimatorKind::kWavelet, ns),
         make(EstimatorKind::kEquiWidth, dpi),
         make(EstimatorKind::kKernel, dpi)});
  }();
  SweepWallClock(state, *workload);
}
BENCHMARK(BM_PaperSweepWallClock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace selest

// Custom main instead of benchmark_main: unless the caller already chose a
// report destination, results also land in BENCH_estimators.json so every
// run leaves a machine-readable artifact that tools/bench_diff.py can
// compare against a previous build's file.
// The host's detected SIMD tier is recorded in the JSON context block.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_estimators.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  benchmark::AddCustomContext("simd_tier",
                              selest::SimdTierName(selest::ActiveSimdTier()));
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
