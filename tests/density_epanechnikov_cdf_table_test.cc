// The Epanechnikov CDF table against the per-sample sum it replaces.
//
// Every check compares with Σ_i F((t − x_i)/h_i) summed sample by sample in
// long double, the formula the kernel estimators evaluated before the table
// existed, within 1e-12 absolute on the selectivity scale (the sum divided
// by the sample count): the table alone, the kernel estimator under all
// three boundary policies, the hybrid's cells and the adaptive kernel, on
// the eight headline files at h-NS and h-DPI2, on an integer sample with
// heavy ties queried exactly on the breakpoints, and with adaptive
// bandwidths. Also pins the table's memory at ten doubles per summed point.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/density/epanechnikov_cdf_table.h"
#include "src/est/adaptive_kernel_estimator.h"
#include "src/est/estimator_factory.h"
#include "src/est/estimator_snapshot.h"
#include "src/est/hybrid_estimator.h"
#include "src/est/kernel_estimator.h"
#include "src/eval/experiment.h"
#include "src/eval/paper_data.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace selest {
namespace {

constexpr double kTolerance = 1e-12;

long double EpanechnikovCdf(long double u) {
  if (u <= -1.0L) return 0.0L;
  if (u >= 1.0L) return 1.0L;
  return 0.5L + 0.25L * (3.0L * u - u * u * u);
}

// Σ_i [F((b − x_i)/h_i) − F((a − x_i)/h_i)] in long double; `bandwidths`
// holds one shared value or one per sample.
long double ReferenceSum(std::span<const double> samples,
                         std::span<const double> bandwidths, double a,
                         double b) {
  long double sum = 0.0L;
  for (size_t i = 0; i < samples.size(); ++i) {
    const long double x = samples[i];
    const long double h =
        bandwidths.size() == 1 ? bandwidths[0] : bandwidths[i];
    sum += EpanechnikovCdf((b - x) / h) - EpanechnikovCdf((a - x) / h);
  }
  return sum;
}

// Query endpoints: a uniform grid over [lo, hi] plus every support end
// x ± h and every sample, so bounds land exactly on breakpoints.
std::vector<double> Probes(std::span<const double> samples,
                           std::span<const double> bandwidths, double lo,
                           double hi, size_t stride) {
  std::vector<double> probes;
  for (int i = 0; i <= 200; ++i) probes.push_back(lo + (hi - lo) * i / 200.0);
  for (size_t i = 0; i < samples.size(); i += stride) {
    const double h = bandwidths.size() == 1 ? bandwidths[0] : bandwidths[i];
    probes.push_back(samples[i] - h);
    probes.push_back(samples[i]);
    probes.push_back(samples[i] + h);
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  return probes;
}

// Reports the largest error seen in the test's XML output.
void RecordWorst(const std::string& label, double worst) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.3g", worst);
  ::testing::Test::RecordProperty(label, text);
}

// The table's G(t)/n against the reference at every probe.
void ExpectTableMatches(const EpanechnikovCdfTable& table,
                        std::span<const double> samples,
                        std::span<const double> bandwidths,
                        std::span<const double> probes,
                        const std::string& label) {
  const double n = static_cast<double>(samples.size());
  const double far_left = probes.front() - 1e9;
  double worst = 0.0;
  for (const double t : probes) {
    const long double want = ReferenceSum(samples, bandwidths, far_left, t);
    const double error =
        static_cast<double>(std::fabs(table.MassBelow(t) - want)) / n;
    worst = std::max(worst, error);
    ASSERT_LE(error, kTolerance) << label << " t=" << t;
  }
  RecordWorst(label, worst);
}

std::vector<double> HeadlineSample(const std::string& file, Domain* domain) {
  auto data = MakePaperDataset(file);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  ProtocolConfig protocol;
  protocol.seed = 17;
  ExperimentSetup setup = MakeSetup(*data, protocol);
  *domain = data->domain();
  return setup.sample;
}

std::unique_ptr<SelectivityEstimator> Build(std::span<const double> sample,
                                            const Domain& domain,
                                            EstimatorKind kind,
                                            SmoothingRule rule,
                                            BoundaryPolicy boundary) {
  EstimatorConfig config;
  config.kind = kind;
  config.smoothing = rule;
  config.boundary = boundary;
  auto built = BuildEstimator(sample, domain, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

// The kernel estimator's answer with its Epanechnikov table replaced by
// the reference sum. Under the boundary-kernel policy the strip masses come
// from the estimator itself over strip-only ranges (the strip tables are
// not what the table replaced); the interior is the reference sum.
double ReferenceKernelAnswer(const KernelEstimator& est, const Domain& domain,
                             double a, double b) {
  if (!(a <= b)) return 0.0;
  a = domain.Clamp(a);
  b = domain.Clamp(b);
  if (a >= b) return 0.0;
  const double h = est.bandwidth();
  const double shared[1] = {h};
  const double n = static_cast<double>(est.sample_size());
  if (est.options().boundary != BoundaryPolicy::kBoundaryKernel) {
    return std::clamp(
        static_cast<double>(ReferenceSum(est.samples(), shared, a, b) / n),
        0.0, 1.0);
  }
  const double left_end = std::min(domain.lo + h, domain.hi);
  const double right_begin = std::max(domain.hi - h, left_end);
  double total = 0.0;
  if (a < left_end) total += est.EstimateSelectivity(a, std::min(b, left_end));
  const double lo = std::max(a, left_end);
  const double hi = std::min(b, right_begin);
  if (lo < hi) {
    total += static_cast<double>(
        ReferenceSum(est.samples(), shared, lo, hi) / n);
  }
  if (b > right_begin) {
    total += est.EstimateSelectivity(std::max(a, right_begin), b);
  }
  return std::clamp(total, 0.0, 1.0);
}

void ExpectKernelMatches(const KernelEstimator& est, const Domain& domain,
                         std::span<const double> probes,
                         const std::string& label) {
  double worst = 0.0;
  for (size_t i = 0; i < probes.size(); i += 3) {
    for (size_t j = i; j < probes.size(); j += 1 + probes.size() / 40) {
      const double want =
          ReferenceKernelAnswer(est, domain, probes[i], probes[j]);
      const double error =
          std::fabs(est.EstimateSelectivity(probes[i], probes[j]) - want);
      worst = std::max(worst, error);
      ASSERT_LE(error, kTolerance)
          << label << " [" << probes[i] << ", " << probes[j] << "]";
    }
  }
  RecordWorst(label, worst);
}

const SmoothingRule kRules[] = {SmoothingRule::kNormalScale,
                                SmoothingRule::kDirectPlugIn};

TEST(EpanechnikovCdfTableTest, HeadlineFilesMatchPerSampleSum) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    for (const SmoothingRule rule : kRules) {
      const auto built = Build(sample, domain, EstimatorKind::kKernel, rule,
                               BoundaryPolicy::kNone);
      ASSERT_NE(built, nullptr);
      const auto& est = dynamic_cast<const KernelEstimator&>(*built);
      const double shared[1] = {est.bandwidth()};
      const std::string label = file + "/" + SmoothingRuleName(rule);
      const auto probes =
          Probes(est.samples(), shared, domain.lo, domain.hi, 7);
      ExpectTableMatches(est.cdf_table(), est.samples(), shared, probes,
                         label);
      ExpectKernelMatches(est, domain, probes, label + "/estimate");
    }
  }
}

TEST(EpanechnikovCdfTableTest, EveryBoundaryPolicyMatchesPerSampleSum) {
  Domain domain;
  const std::vector<double> sample = HeadlineSample("n(20)", &domain);
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    for (const SmoothingRule rule : kRules) {
      const auto built =
          Build(sample, domain, EstimatorKind::kKernel, rule, policy);
      ASSERT_NE(built, nullptr);
      const auto& est = dynamic_cast<const KernelEstimator&>(*built);
      const double shared[1] = {est.bandwidth()};
      const std::string label = std::string(BoundaryPolicyName(policy)) +
                                "/" + SmoothingRuleName(rule);
      const auto probes =
          Probes(est.samples(), shared, domain.lo, domain.hi, 5);
      ExpectTableMatches(est.cdf_table(), est.samples(), shared, probes,
                         label);
      ExpectKernelMatches(est, domain, probes, label + "/estimate");
    }
  }
}

// A hybrid's cells are kernel estimators over the cell's bin; the hybrid's
// snapshot carries each one, and a deserialized cell answers bit for bit
// like the live one.
TEST(EpanechnikovCdfTableTest, HybridCellsMatchPerSampleSum) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    auto hybrid = HybridEstimator::Create(sample, domain, {});
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    ByteWriter writer;
    ASSERT_TRUE(hybrid->SerializeState(writer).ok());
    ByteReader reader(writer.bytes());
    ASSERT_TRUE(reader.ReadDoubleVector().ok());
    auto num_cells = reader.ReadU32();
    ASSERT_TRUE(num_cells.ok());
    struct CellRef {
      Domain domain;
      double weight;
      KernelEstimator estimator;
    };
    std::vector<CellRef> cells;
    for (uint32_t c = 0; c < *num_cells; ++c) {
      auto cell_domain = ReadDomain(reader);
      auto weight = reader.ReadDouble();
      ASSERT_TRUE(cell_domain.ok() && weight.ok());
      auto estimator = KernelEstimator::DeserializeState(reader);
      ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
      const double shared[1] = {estimator->bandwidth()};
      const auto probes = Probes(estimator->samples(), shared,
                                 cell_domain->lo, cell_domain->hi, 3);
      ExpectTableMatches(estimator->cdf_table(), estimator->samples(), shared,
                         probes, file + "/cell" + std::to_string(c));
      ExpectKernelMatches(*estimator, *cell_domain, probes,
                          file + "/cell" + std::to_string(c) + "/estimate");
      cells.push_back({*cell_domain, *weight, std::move(estimator).value()});
    }
    // The hybrid's own answer, covered cells read from their stored
    // full-range value included, against the reference cell answers.
    Rng rng(3);
    for (int q = 0; q < 400; ++q) {
      double a = domain.lo + domain.width() * (1.2 * rng.NextDouble() - 0.1);
      double b = domain.lo + domain.width() * (1.2 * rng.NextDouble() - 0.1);
      if (a > b) std::swap(a, b);
      double want = 0.0;
      for (const CellRef& cell : cells) {
        const double lo = std::max(a, cell.domain.lo);
        const double hi = std::min(b, cell.domain.hi);
        if (lo >= hi) continue;
        want += cell.weight *
                ReferenceKernelAnswer(cell.estimator, cell.domain, lo, hi);
      }
      EXPECT_NEAR(hybrid->EstimateSelectivity(a, b), std::clamp(want, 0.0, 1.0),
                  kTolerance)
          << file << " [" << a << ", " << b << "]";
    }
  }
}

TEST(EpanechnikovCdfTableTest, AdaptiveBandwidthsMatchPerSampleSum) {
  for (const std::string& file : HeadlineFileNames()) {
    Domain domain;
    const std::vector<double> sample = HeadlineSample(file, &domain);
    for (const SmoothingRule rule : kRules) {
      const auto built = Build(sample, domain, EstimatorKind::kAdaptiveKernel,
                               rule, BoundaryPolicy::kNone);
      ASSERT_NE(built, nullptr);
      const auto& est = dynamic_cast<const AdaptiveKernelEstimator&>(*built);
      const std::string label = file + "/" + SmoothingRuleName(rule);
      const auto probes =
          Probes(est.samples(), est.bandwidths(), domain.lo, domain.hi, 7);
      ExpectTableMatches(est.cdf_table(), est.samples(), est.bandwidths(),
                         probes, label);
      const double n = static_cast<double>(est.samples().size());
      for (size_t i = 0; i < probes.size(); i += 5) {
        for (size_t j = i; j < probes.size(); j += 1 + probes.size() / 40) {
          const double a = domain.Clamp(probes[i]);
          const double b = domain.Clamp(probes[j]);
          const double want =
              a >= b ? 0.0
                     : std::clamp(static_cast<double>(
                                      ReferenceSum(est.samples(),
                                                   est.bandwidths(), a, b) /
                                      n),
                                  0.0, 1.0);
          ASSERT_NEAR(est.EstimateSelectivity(probes[i], probes[j]), want,
                      kTolerance)
              << label << " [" << probes[i] << ", " << probes[j] << "]";
        }
      }
    }
  }
}

// 2,000 integers on [0, 50]: every value repeats ~40 times, so whole runs of
// samples enter and leave at the same breakpoint; queried exactly there.
TEST(EpanechnikovCdfTableTest, HeavyTiesQueriedOnBreakpoints) {
  Rng rng(11);
  std::vector<double> sample(2000);
  for (double& x : sample) {
    x = std::floor(51.0 * rng.NextDouble());
  }
  std::sort(sample.begin(), sample.end());
  const Domain domain = ContinuousDomain(0.0, 50.0);
  for (const double h : {0.5, 0.75, 1.0, 2.5, 7.3}) {
    const double shared[1] = {h};
    const EpanechnikovCdfTable table(sample, h);
    const auto probes = Probes(sample, shared, -10.0, 60.0, 1);
    ExpectTableMatches(table, sample, shared, probes,
                       "ties/h=" + std::to_string(h));
    KernelEstimatorOptions options;
    options.bandwidth = h;
    for (const BoundaryPolicy policy :
         {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
          BoundaryPolicy::kBoundaryKernel}) {
      options.boundary = policy;
      auto est = KernelEstimator::Create(sample, domain, options);
      ASSERT_TRUE(est.ok()) << est.status().ToString();
      ExpectKernelMatches(*est, domain, probes,
                          "ties/" + std::string(BoundaryPolicyName(policy)));
    }
  }
  // Per-sample bandwidths over the same ties: narrow where a value repeats
  // often, wide where it is rare.
  std::vector<double> bandwidths(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    const auto run = std::equal_range(sample.begin(), sample.end(), sample[i]);
    bandwidths[i] = 40.0 / static_cast<double>(run.second - run.first);
  }
  const EpanechnikovCdfTable table(sample, bandwidths);
  ExpectTableMatches(table, sample, bandwidths,
                     Probes(sample, bandwidths, -10.0, 60.0, 1),
                     "ties/adaptive");
}

// Ends of the sum: exactly 0 left of every support and exactly the sample
// count right of every support; one sample reproduces F itself.
TEST(EpanechnikovCdfTableTest, EndsAreExactAndOneSampleIsTheCdf) {
  const std::vector<double> sample{3.0, 4.0, 4.0, 9.5};
  const EpanechnikovCdfTable table(sample, 1.25);
  EXPECT_EQ(table.MassBelow(-100.0), 0.0);
  EXPECT_EQ(table.MassBelow(3.0 - 1.25), 0.0);
  EXPECT_EQ(table.MassBelow(9.5 + 1.25), 4.0);
  EXPECT_EQ(table.MassBelow(1e300), 4.0);

  const std::vector<double> one{0.0};
  const EpanechnikovCdfTable single(one, 2.0);
  for (double t = -3.0; t <= 3.0; t += 0.125) {
    EXPECT_NEAR(single.MassBelow(t),
                static_cast<double>(EpanechnikovCdf(t / 2.0L)), 1e-15)
        << "t=" << t;
  }
}

// At most one piece per support end and five doubles per piece: ten
// doubles per summed point, reflected copies included.
TEST(EpanechnikovCdfTableTest, MemoryIsAtMostTenDoublesPerPoint) {
  Domain domain;
  const std::vector<double> sample = HeadlineSample("u(20)", &domain);
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    const auto built = Build(sample, domain, EstimatorKind::kKernel,
                             SmoothingRule::kNormalScale, policy);
    ASSERT_NE(built, nullptr);
    const auto& est = dynamic_cast<const KernelEstimator&>(*built);
    ASSERT_GE(est.samples().size(), sample.size());
    EXPECT_LE(est.cdf_table().SizeInDoubles(), 10 * est.samples().size())
        << BoundaryPolicyName(policy);
    EXPECT_LE(est.cdf_table().num_pieces(), 2 * est.samples().size());
  }
  const auto built = Build(sample, domain, EstimatorKind::kAdaptiveKernel,
                           SmoothingRule::kNormalScale, BoundaryPolicy::kNone);
  ASSERT_NE(built, nullptr);
  const auto& adaptive = dynamic_cast<const AdaptiveKernelEstimator&>(*built);
  EXPECT_LE(adaptive.cdf_table().SizeInDoubles(),
            10 * adaptive.samples().size());
}

// Other kernel shapes keep the per-sample scan and build no table.
TEST(EpanechnikovCdfTableTest, OtherKernelShapesBuildNoTable) {
  const std::vector<double> sample{10.0, 20.0, 30.0};
  KernelEstimatorOptions options;
  options.bandwidth = 4.0;
  options.kernel = Kernel(KernelType::kBiweight);
  auto est = KernelEstimator::Create(sample, ContinuousDomain(0.0, 40.0),
                                     options);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->cdf_table().num_pieces(), 0u);
}

}  // namespace
}  // namespace selest
