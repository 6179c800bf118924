// Kernel-family builds against the Kde densities they replaced.
//
// The boundary strips, the adaptive kernel's pilot and the hybrid's
// change-point pilot read their densities from G′, the derivative of the
// Epanechnikov CDF table, where they used to call Kde::Density per point.
// Each check compares with that reference: G′ against a long-double
// Σ K((t − x_i)/h_i)/h_i, within 1e-12 of the summed kernel peaks at t and
// exactly 0 outside every support; strip cumulative tables against the
// trapezoid over Kde::Density, within 1e-12 absolute on the selectivity
// scale; adaptive bandwidths within 1e-12 relative; hybrid partitions
// identical. Also: Kde::Create and HybridEstimator::Create reject
// non-finite samples.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/density/epanechnikov_cdf_table.h"
#include "src/density/kde.h"
#include "src/est/adaptive_kernel_estimator.h"
#include "src/est/change_point.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/eval/experiment.h"
#include "src/eval/paper_data.h"
#include "src/smoothing/direct_plug_in.h"
#include "src/smoothing/normal_scale.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace selest {
namespace {

constexpr double kTolerance = 1e-12;

// Reports the largest error seen in the test's XML output.
void RecordWorst(const std::string& label, double worst) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.3g", worst);
  ::testing::Test::RecordProperty(label, text);
}

std::vector<double> HeadlineSample(const std::string& file, Domain* domain,
                                   uint64_t seed = 17) {
  auto data = MakePaperDataset(file);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  ProtocolConfig protocol;
  protocol.seed = seed;
  ExperimentSetup setup = MakeSetup(*data, protocol);
  *domain = data->domain();
  std::sort(setup.sample.begin(), setup.sample.end());
  return setup.sample;
}

// The integer sample the tie checks share: 3,000 values on [1, 513] with a
// density step at 201, and 300 values each exactly on both domain edges
// and on 201. The hybrid's change-point grid has step 1 here, so every
// partition edge carries samples too.
std::vector<double> DiscreteSample() {
  Rng rng(23);
  std::vector<double> sample;
  for (int i = 0; i < 2100; ++i) {
    sample.push_back(1.0 + std::floor(rng.NextDouble() < 0.7
                                          ? 201.0 * rng.NextDouble()
                                          : 200.0 + 313.0 * rng.NextDouble()));
  }
  for (const double atom : {1.0, 201.0, 513.0}) {
    sample.insert(sample.end(), 300, atom);
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}
const Domain kDiscreteDomain = ContinuousDomain(1.0, 513.0);

const SmoothingRule kRules[] = {SmoothingRule::kNormalScale,
                                SmoothingRule::kDirectPlugIn};

// ---- G′ --------------------------------------------------------------------

// Σ_i K((t − x_i)/h_i)/h_i in long double, and the summed peaks
// Σ K(0)/h_i over the supports that reach t (the scale of the check). A
// support end that rounding puts a hair from t counts as reaching it:
// a probe is outside only when no support comes near.
struct DensitySum {
  long double value = 0.0L;
  long double peaks = 0.0L;
};

DensitySum ReferenceDerivative(std::span<const double> samples,
                               std::span<const double> bandwidths, double t) {
  DensitySum sum;
  for (size_t i = 0; i < samples.size(); ++i) {
    const long double h =
        bandwidths.size() == 1 ? bandwidths[0] : bandwidths[i];
    const long double u = (static_cast<long double>(t) - samples[i]) / h;
    if (std::fabs(u) > 1.0L + 1e-9L) continue;
    sum.peaks += 0.75L / h;
    if (std::fabs(u) <= 1.0L) sum.value += 0.75L * (1.0L - u * u) / h;
  }
  return sum;
}

void ExpectDerivativeMatches(std::span<const double> samples,
                             std::span<const double> bandwidths,
                             size_t stride, const std::string& label) {
  const EpanechnikovCdfTable table =
      bandwidths.size() == 1 ? EpanechnikovCdfTable(samples, bandwidths[0])
                             : EpanechnikovCdfTable(samples, bandwidths);
  // Every stride-th sample and its support ends, midpoints between
  // consecutive probes (so the gaps between supports are probed too), and
  // points beyond both ends of the union of supports.
  std::vector<double> probes;
  double first_end = samples[0];
  double last_end = samples[0];
  for (size_t i = 0; i < samples.size(); ++i) {
    const double h = bandwidths.size() == 1 ? bandwidths[0] : bandwidths[i];
    first_end = std::min(first_end, samples[i] - h);
    last_end = std::max(last_end, samples[i] + h);
    if (i % stride != 0) continue;
    probes.insert(probes.end(), {samples[i] - h, samples[i], samples[i] + h});
  }
  std::sort(probes.begin(), probes.end());
  const size_t ends = probes.size();
  for (size_t i = 0; i + 1 < ends; ++i) {
    probes.push_back(0.5 * (probes[i] + probes[i + 1]));
  }
  const double margin = 1e-6 * (last_end - first_end);
  probes.insert(probes.end(),
                {first_end - margin, last_end + margin, -1e300, 1e300});
  double worst = 0.0;
  size_t outside = 0;
  for (const double t : probes) {
    const DensitySum want = ReferenceDerivative(samples, bandwidths, t);
    const double got = table.Derivative(t);
    if (want.peaks == 0.0L) {
      ++outside;
      ASSERT_EQ(got, 0.0) << label << " t=" << t << " lies outside";
      continue;
    }
    const double error =
        static_cast<double>(std::fabs(got - want.value) / want.peaks);
    worst = std::max(worst, error);
    ASSERT_LE(error, kTolerance) << label << " t=" << t;
  }
  EXPECT_GE(outside, 4u) << label;
  RecordWorst(label, worst);
}

TEST(KernelBuildTest, DerivativeMatchesPerSampleDensitySum) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    const double bandwidths[] = {
        NormalScaleBandwidth(sample, domain, Kernel()),
        DirectPlugInBandwidth(sample, domain, Kernel(), 2)};
    for (const double h : bandwidths) {
      const double shared[1] = {h};
      ExpectDerivativeMatches(sample, shared, 3,
                              file + "/h=" + std::to_string(h));
    }
    // Per-sample bandwidths: the adaptive kernel's own.
    auto adaptive = AdaptiveKernelEstimator::Create(sample, domain, {});
    ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
    ExpectDerivativeMatches(adaptive->samples(), adaptive->bandwidths(), 3,
                            file + "/adaptive");
  }
  // Ties: whole runs enter and leave at one breakpoint, and at h < 0.5
  // the supports leave gaps between the integers.
  const std::vector<double> ties = DiscreteSample();
  for (const double h : {0.25, 0.5, 1.0, 7.3}) {
    const double shared[1] = {h};
    ExpectDerivativeMatches(ties, shared, 1,
                            "ties/h=" + std::to_string(h));
  }
}

TEST(KernelBuildTest, DerivativeOfOneSampleIsTheKernel) {
  const std::vector<double> one{2.0};
  const EpanechnikovCdfTable table(one, 0.5);
  for (double t = 0.0; t <= 4.0; t += 1.0 / 64.0) {
    const double u = (t - 2.0) / 0.5;
    const double want = std::fabs(u) <= 1.0 ? 0.75 * (1.0 - u * u) / 0.5 : 0.0;
    EXPECT_NEAR(table.Derivative(t), want, 1e-15) << "t=" << t;
  }
  EXPECT_EQ(table.Derivative(2.5), 0.0);
  EXPECT_EQ(table.Derivative(-1e300), 0.0);
}

// ---- Boundary strips -------------------------------------------------------

struct Strip {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<double> cumulative;
};

// The estimator's two strip tables, read back from its snapshot (they are
// its last fields).
std::vector<Strip> StripsOf(const KernelEstimator& est) {
  ByteWriter writer;
  EXPECT_TRUE(est.SerializeState(writer).ok());
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.ReadDoubleVector().ok());
  EXPECT_TRUE(reader.ReadU64().ok());
  EXPECT_TRUE(ReadDomain(reader).ok());
  EXPECT_TRUE(reader.ReadDouble().ok());
  EXPECT_TRUE(ReadKernel(reader).ok());
  EXPECT_TRUE(ReadBoundaryPolicy(reader).ok());
  EXPECT_TRUE(reader.ReadU32().ok());
  std::vector<Strip> strips(2);
  for (Strip& strip : strips) {
    strip.lo = reader.ReadDouble().value();
    strip.hi = reader.ReadDouble().value();
    strip.cumulative = reader.ReadDoubleVector().value();
  }
  return strips;
}

// The strip table as the estimator built it from a boundary-kernel Kde:
// a trapezoid over the density truncated at zero.
std::vector<double> ReferenceStrip(const Kde& kde, double lo, double hi,
                                   size_t nodes) {
  std::vector<double> cumulative(nodes + 1, 0.0);
  if (hi <= lo) return cumulative;
  const double step = (hi - lo) / static_cast<double>(nodes);
  double previous = std::max(kde.Density(lo), 0.0);
  for (size_t i = 1; i <= nodes; ++i) {
    const double current =
        std::max(kde.Density(lo + static_cast<double>(i) * step), 0.0);
    cumulative[i] = cumulative[i - 1] + 0.5 * step * (previous + current);
    previous = current;
  }
  return cumulative;
}

void ExpectStripsMatch(const KernelEstimator& est, const Domain& domain,
                       const std::string& label) {
  EXPECT_EQ(est.options().boundary, BoundaryPolicy::kBoundaryKernel);
  auto kde = Kde::Create(est.samples(), est.bandwidth(), domain, Kernel(),
                         BoundaryPolicy::kBoundaryKernel);
  EXPECT_TRUE(kde.ok()) << kde.status().ToString();
  double worst = 0.0;
  for (const Strip& strip : StripsOf(est)) {
    const std::vector<double> want = ReferenceStrip(
        *kde, strip.lo, strip.hi, strip.cumulative.size() - 1);
    EXPECT_EQ(strip.cumulative.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      const double error = std::fabs(strip.cumulative[i] - want[i]);
      worst = std::max(worst, error);
      EXPECT_LE(error, kTolerance)
          << label << " strip [" << strip.lo << ", " << strip.hi
          << "] node " << i;
    }
  }
  RecordWorst(label, worst);
}

std::unique_ptr<SelectivityEstimator> BuildKernel(
    std::span<const double> sample, const Domain& domain, SmoothingRule rule) {
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.smoothing = rule;
  config.boundary = BoundaryPolicy::kBoundaryKernel;
  auto built = BuildEstimator(sample, domain, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

TEST(KernelBuildTest, HeadlineStripsMatchKdeTrapezoid) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    for (const SmoothingRule rule : kRules) {
      const auto built = BuildKernel(sample, domain, rule);
      ASSERT_NE(built, nullptr);
      ExpectStripsMatch(dynamic_cast<const KernelEstimator&>(*built), domain,
                        file + "/" + SmoothingRuleName(rule));
    }
  }
}

// A hybrid's cells, read back from its snapshot.
struct Cell {
  Domain domain;
  KernelEstimator estimator;
};

std::vector<Cell> CellsOf(const HybridEstimator& hybrid) {
  ByteWriter writer;
  EXPECT_TRUE(hybrid.SerializeState(writer).ok());
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.ReadDoubleVector().ok());
  const uint32_t num_cells = reader.ReadU32().value();
  std::vector<Cell> cells;
  for (uint32_t c = 0; c < num_cells; ++c) {
    const Domain domain = ReadDomain(reader).value();
    EXPECT_TRUE(reader.ReadDouble().ok());
    auto estimator = KernelEstimator::DeserializeState(reader);
    EXPECT_TRUE(estimator.ok()) << estimator.status().ToString();
    cells.push_back({domain, std::move(estimator).value()});
  }
  return cells;
}

TEST(KernelBuildTest, HybridCellStripsMatchKdeTrapezoid) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    auto hybrid = HybridEstimator::Create(sample, domain, {});
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    const std::vector<Cell> cells = CellsOf(*hybrid);
    ASSERT_EQ(cells.size(), hybrid->num_bins());
    for (size_t c = 0; c < cells.size(); ++c) {
      ExpectStripsMatch(cells[c].estimator, cells[c].domain,
                        file + "/cell" + std::to_string(c));
    }
  }
}

// Values exactly on the domain edges, beyond them, and on interior cell
// edges. Where x − qh rounds past the edge (near lo = 1 at h = 10/3, 4.4
// and 7.3; mirrored, near hi = 1), and for every sample beyond an edge,
// the boundary kernel's search drops samples that G′ still covers, and
// the strip must drop them too.
TEST(KernelBuildTest, DiscreteStripsMatchKdeTrapezoid) {
  const std::vector<double> sample = DiscreteSample();
  std::vector<double> mirrored;  // 2 − x: on [−511, 1]
  for (const double x : sample) mirrored.push_back(2.0 - x);
  std::sort(mirrored.begin(), mirrored.end());
  const struct {
    std::span<const double> sample;
    Domain domain;
    std::string name;
  } cases[] = {
      {sample, kDiscreteDomain, "on-edges"},
      {mirrored, ContinuousDomain(-511.0, 1.0), "mirrored"},
      {sample, ContinuousDomain(2.0, 512.0), "beyond-edges"},
  };
  KernelEstimatorOptions options;
  options.boundary = BoundaryPolicy::kBoundaryKernel;
  for (const auto& c : cases) {
    for (const double h :
         {0.3, 1.0, 2.5, 10.0 / 3.0, 4.4, 7.3,
          NormalScaleBandwidth(c.sample, c.domain, Kernel())}) {
      options.bandwidth = h;
      auto est = KernelEstimator::Create(c.sample, c.domain, options);
      ASSERT_TRUE(est.ok()) << est.status().ToString();
      ExpectStripsMatch(*est, c.domain,
                        c.name + "/h=" + std::to_string(h));
    }
  }
  auto hybrid = HybridEstimator::Create(sample, kDiscreteDomain, {});
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ASSERT_GT(hybrid->num_bins(), 1u);
  const std::vector<Cell> cells = CellsOf(*hybrid);
  for (size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(cells[c].domain.lo, std::floor(cells[c].domain.lo));
    ExpectStripsMatch(cells[c].estimator, cells[c].domain,
                      "discrete/cell" + std::to_string(c));
  }
}

// ---- Pilots ----------------------------------------------------------------

TEST(KernelBuildTest, ReflectedPilotMatchesReflectingKde) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    const double h = NormalScaleBandwidth(sample, domain, Kernel());
    const auto pilot = ReflectedPilotDensity(sample, h, domain, Kernel());
    const Kde kde = Kde::Create(sample, h, domain, Kernel(),
                                BoundaryPolicy::kReflection)
                        .value();
    // Relative to the density, or to one sample's peak K(0)/(nh) where
    // the density is smaller.
    const double peak = 0.75 / (static_cast<double>(sample.size()) * h);
    double worst = 0.0;
    for (int i = 0; i <= 512; ++i) {
      const double x = domain.lo + domain.width() * i / 512.0;
      const double want = kde.Density(x);
      const double error = std::fabs(pilot(x) - want) / std::max(want, peak);
      worst = std::max(worst, error);
      ASSERT_LE(error, kTolerance) << file << " x=" << x;
    }
    RecordWorst(file, worst);
  }
  // Other kernel shapes evaluate the Kde itself.
  Domain domain;
  const std::vector<double> sample = HeadlineSample("n(20)", &domain);
  const Kernel biweight(KernelType::kBiweight);
  const auto pilot = ReflectedPilotDensity(sample, 3.0, domain, biweight);
  const Kde kde = Kde::Create(sample, 3.0, domain, biweight,
                              BoundaryPolicy::kReflection)
                      .value();
  for (int i = 0; i <= 64; ++i) {
    const double x = domain.lo + domain.width() * i / 64.0;
    EXPECT_EQ(pilot(x), kde.Density(x)) << "x=" << x;
  }
}

// Silverman's bandwidths from a reflecting Kde pilot, as the estimator
// computed them before the table.
std::vector<double> ReferenceAdaptiveBandwidths(
    std::span<const double> sorted, const Domain& domain,
    const AdaptiveKernelOptions& options, double h0) {
  const Kde pilot = Kde::Create(sorted, h0, domain, options.kernel,
                                BoundaryPolicy::kReflection)
                        .value();
  std::vector<double> density(sorted.size());
  double log_sum = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    density[i] = std::max(pilot.Density(sorted[i]), 1e-300);
    log_sum += std::log(density[i]);
  }
  const double geometric_mean =
      std::exp(log_sum / static_cast<double>(sorted.size()));
  std::vector<double> bandwidths(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    bandwidths[i] =
        h0 * std::min(std::pow(density[i] / geometric_mean,
                               -options.sensitivity),
                      options.max_widening);
  }
  return bandwidths;
}

TEST(KernelBuildTest, AdaptiveBandwidthsMatchKdePilot) {
  const auto check = [](std::span<const double> sample, const Domain& domain,
                        const AdaptiveKernelOptions& options,
                        const std::string& label) {
    auto est = AdaptiveKernelEstimator::Create(sample, domain, options);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    const std::vector<double> want = ReferenceAdaptiveBandwidths(
        est->samples(), domain, options, est->base_bandwidth());
    ASSERT_EQ(est->bandwidths().size(), want.size());
    double worst = 0.0;
    for (size_t i = 0; i < want.size(); ++i) {
      const double error = std::fabs(est->bandwidths()[i] / want[i] - 1.0);
      worst = std::max(worst, error);
      ASSERT_LE(error, kTolerance) << label << " sample " << i;
    }
    RecordWorst(label, worst);
  };
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    AdaptiveKernelOptions options;
    check(sample, domain, options, file + "/h-NS");
    options.base_bandwidth = DirectPlugInBandwidth(sample, domain, Kernel(), 2);
    check(sample, domain, options, file + "/h-DPI2");
  }
  AdaptiveKernelOptions options;
  options.base_bandwidth = 2.5;
  check(DiscreteSample(), kDiscreteDomain, options, "discrete");
}

// The hybrid's partition from a reflecting Kde pilot: change points, then
// the merge of under-populated bins, counted from scratch each time.
std::vector<double> ReferencePartition(std::span<const double> sorted,
                                       const Domain& domain,
                                       const HybridEstimatorOptions& options) {
  const double h = options.pilot_bandwidth > 0.0
                       ? options.pilot_bandwidth
                       : NormalScaleBandwidth(sorted, domain, options.kernel);
  const Kde pilot = Kde::Create(sorted, h, domain, options.kernel,
                                BoundaryPolicy::kReflection)
                        .value();
  std::vector<double> partition{domain.lo};
  for (const double cp :
       DetectChangePoints(pilot, domain, options.change_points)) {
    partition.push_back(cp);
  }
  partition.push_back(domain.hi);
  const auto count = [&](size_t i, size_t j) {
    return static_cast<size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), partition[j]) -
        std::lower_bound(sorted.begin(), sorted.end(), partition[i]));
  };
  const size_t min_count = std::max<size_t>(
      static_cast<size_t>(std::ceil(options.min_bin_fraction *
                                    static_cast<double>(sorted.size()))),
      2);
  for (bool merged = true; merged && partition.size() > 2;) {
    merged = false;
    for (size_t i = 0; i + 1 < partition.size(); ++i) {
      if (count(i, i + 1) >= min_count) continue;
      size_t erase;
      if (i == 0) {
        erase = 1;
      } else if (i + 2 == partition.size()) {
        erase = partition.size() - 2;
      } else {
        erase = count(i - 1, i) <= count(i + 1, i + 2) ? i : i + 1;
      }
      partition.erase(partition.begin() + static_cast<long>(erase));
      merged = true;
      break;
    }
  }
  return partition;
}

TEST(KernelBuildTest, HybridPartitionsMatchKdePilot) {
  const auto check = [](std::span<const double> sample, const Domain& domain,
                        const HybridEstimatorOptions& options,
                        const std::string& label) {
    auto hybrid = HybridEstimator::Create(sample, domain, options);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    EXPECT_EQ(hybrid->partition(),
              ReferencePartition(sample, domain, options))
        << label;
  };
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    check(sample, domain, {}, file);
  }
  // The ablation's grid (bench_abl_hybrid_sensitivity): change-point
  // budgets × minimum bin masses on its two files and protocol seed.
  for (const char* file : {"arap1", "rr2(22)"}) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain, 31);
    for (const int budget : {0, 2, 4, 8, 16}) {
      for (const double min_mass : {0.02, 0.10, 0.25}) {
        HybridEstimatorOptions options;
        options.change_points.max_change_points = budget;
        options.min_bin_fraction = min_mass;
        check(sample, domain, options,
              std::string(file) + "/budget=" + std::to_string(budget) +
                  "/min=" + std::to_string(min_mass));
      }
    }
  }
  check(DiscreteSample(), kDiscreteDomain, {}, "discrete");
}

// ---- Non-finite samples ----------------------------------------------------

TEST(KernelBuildTest, KdeAndHybridRejectNonFiniteSamples) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> sample;
    for (int i = 0; i < 200; ++i) sample.push_back(0.5 * i);
    sample[77] = bad;
    for (const BoundaryPolicy policy :
         {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
          BoundaryPolicy::kBoundaryKernel}) {
      const auto kde = Kde::Create(sample, 2.0, domain, Kernel(), policy);
      ASSERT_FALSE(kde.ok()) << bad;
      EXPECT_EQ(kde.status().code(), StatusCode::kInvalidArgument) << bad;
    }
    HybridEstimatorOptions options;
    for (const double pilot_bandwidth : {0.0, 5.0}) {
      options.pilot_bandwidth = pilot_bandwidth;
      const auto hybrid = HybridEstimator::Create(sample, domain, options);
      ASSERT_FALSE(hybrid.ok()) << bad << " pilot h=" << pilot_bandwidth;
      EXPECT_EQ(hybrid.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(hybrid.status().message(),
                "hybrid estimator samples must be finite");
    }
  }
}

}  // namespace
}  // namespace selest
