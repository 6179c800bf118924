#include "src/est/estimator_factory.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

std::vector<double> UniformSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample(n);
  for (double& x : sample) x = 100.0 * rng.NextDouble();
  return sample;
}

const EstimatorKind kAllKinds[] = {
    EstimatorKind::kSampling,   EstimatorKind::kUniform,
    EstimatorKind::kEquiWidth,  EstimatorKind::kEquiDepth,
    EstimatorKind::kMaxDiff,    EstimatorKind::kAverageShifted,
    EstimatorKind::kKernel,     EstimatorKind::kHybrid,
    EstimatorKind::kVOptimal,   EstimatorKind::kAdaptiveKernel,
    EstimatorKind::kWavelet,    EstimatorKind::kFeedback,
    EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning,
};

class FactoryKindTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(FactoryKindTest, BuildsWithNormalScaleRule) {
  const auto sample = UniformSample(500, 1);
  EstimatorConfig config;
  config.kind = GetParam();
  auto est = BuildEstimator(sample, kDomain, config);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  const double s = (*est)->EstimateSelectivity(20.0, 40.0);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
  EXPECT_GT((*est)->StorageBytes(), 0u);
  EXPECT_FALSE((*est)->name().empty());
}

TEST_P(FactoryKindTest, RoughlyCorrectOnUniformData) {
  const auto sample = UniformSample(2000, 2);
  EstimatorConfig config;
  config.kind = GetParam();
  auto est = BuildEstimator(sample, kDomain, config);
  ASSERT_TRUE(est.ok());
  // True selectivity of [20, 40] on uniform data is 0.2; every estimator
  // in the paper gets within a few points on this easy case.
  EXPECT_NEAR((*est)->EstimateSelectivity(20.0, 40.0), 0.2, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FactoryKindTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FactoryTest, FixedSmoothingSetsBinCount) {
  const auto sample = UniformSample(200, 3);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = 25.0;
  auto est = BuildEstimator(sample, kDomain, config);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ((*est)->name(), "equi-width(25)");
}

TEST(FactoryTest, FixedSmoothingSetsBandwidth) {
  const auto sample = UniformSample(200, 4);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = 7.5;
  config.boundary = BoundaryPolicy::kNone;
  auto est = BuildEstimator(sample, kDomain, config);
  ASSERT_TRUE(est.ok());
  // Verify through behaviour: a sample at distance < 7.5 from the query
  // edge contributes fractionally.
  EXPECT_EQ((*est)->name(), "kernel(epanechnikov, none)");
}

TEST(FactoryTest, InvalidFixedSmoothingFailsCleanly) {
  const auto sample = UniformSample(50, 5);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = 0.0;  // invalid bandwidth
  EXPECT_FALSE(BuildEstimator(sample, kDomain, config).ok());
}

TEST(FactoryTest, DirectPlugInRuleBuilds) {
  const auto sample = UniformSample(500, 6);
  for (EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kKernel}) {
    EstimatorConfig config;
    config.kind = kind;
    config.smoothing = SmoothingRule::kDirectPlugIn;
    auto est = BuildEstimator(sample, kDomain, config);
    ASSERT_TRUE(est.ok()) << EstimatorKindName(kind);
    EXPECT_NEAR((*est)->EstimateSelectivity(0.0, 100.0), 1.0, 0.05);
  }
}

TEST(FactoryTest, EmptySampleFailsForSampleBasedKinds) {
  EstimatorConfig config;
  for (EstimatorKind kind : kAllKinds) {
    if (kind == EstimatorKind::kUniform) continue;  // needs no sample
    config.kind = kind;
    EXPECT_FALSE(BuildEstimator({}, kDomain, config).ok())
        << EstimatorKindName(kind);
  }
}

TEST(FactoryTest, KindAndRuleNames) {
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kKernel), "kernel");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kAverageShifted), "ash");
  EXPECT_STREQ(SmoothingRuleName(SmoothingRule::kNormalScale), "h-NS");
  EXPECT_STREQ(SmoothingRuleName(SmoothingRule::kDirectPlugIn), "h-DPI");
}

TEST(FactoryTest, AlternativeKernelTypes) {
  const auto sample = UniformSample(300, 7);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.kernel = KernelType::kBiweight;
  config.boundary = BoundaryPolicy::kReflection;
  auto est = BuildEstimator(sample, kDomain, config);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ((*est)->name(), "kernel(biweight, reflection)");
}

// CatalogKey's fingerprint: every config field that changes the build
// must change the key, or two configs would share a snapshot and a log.
TEST(CatalogKeyTest, FingerprintSeparatesConfigs) {
  EstimatorConfig a;
  a.kind = EstimatorKind::kEquiWidth;
  a.smoothing = SmoothingRule::kFixed;
  a.fixed_smoothing = 16;
  EstimatorConfig b = a;
  b.fixed_smoothing = 17;
  EXPECT_NE(FingerprintConfig(a), FingerprintConfig(b));
  EXPECT_EQ(FingerprintConfig(a), FingerprintConfig(a));
  EstimatorConfig kernel;
  kernel.kind = EstimatorKind::kKernel;
  EstimatorConfig kernel_boundary = kernel;
  kernel_boundary.boundary = BoundaryPolicy::kNone;
  EXPECT_NE(FingerprintConfig(kernel), FingerprintConfig(kernel_boundary));
}

}  // namespace
}  // namespace selest
