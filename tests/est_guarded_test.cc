// GuardedEstimator: transparent over a healthy chain head, repairs
// malformed queries, falls back past poisoned links, and always returns a
// finite selectivity in [0, 1].
#include "src/est/guarded_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/distribution.h"
#include "src/est/estimator_factory.h"
#include "src/exec/fault_injection.h"
#include "src/util/random.h"

namespace selest {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A chain link that returns a constant — including NaN/Inf or values
// outside [0, 1] — to exercise each guard path.
class ConstEstimator : public SelectivityEstimator {
 public:
  explicit ConstEstimator(double value, std::string name = "const")
      : value_(value), name_(std::move(name)) {}
  double EstimateSelectivity(double, double) const override { return value_; }
  size_t StorageBytes() const override { return sizeof(double); }
  std::string name() const override { return name_; }

 private:
  double value_;
  std::string name_;
};

std::unique_ptr<GuardedEstimator> MakeGuarded(std::vector<double> link_values,
                                              const Domain& domain) {
  std::vector<std::unique_ptr<SelectivityEstimator>> chain;
  for (double value : link_values) {
    chain.push_back(std::make_unique<ConstEstimator>(value));
  }
  return std::make_unique<GuardedEstimator>(std::move(chain), domain);
}

std::vector<double> MakeSample(size_t n) {
  Rng rng(3);
  const Domain domain = ContinuousDomain(0.0, 100.0);
  const NormalDistribution dist(50.0, 12.0);
  const Dataset data = GenerateDataset("s", dist, n, domain, rng);
  return data.values();
}

TEST(GuardedEstimatorTest, TransparentForHealthyPrimary) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  const std::vector<double> sample = MakeSample(500);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  auto raw = BuildEstimator(sample, domain, config);
  ASSERT_TRUE(raw.ok());
  auto guarded = BuildGuardedEstimator(sample, domain, config);
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(guarded->primary_status.ok());
  const GuardedEstimator& chain = *guarded->estimator;
  for (double a = 0.0; a < 100.0; a += 7.3) {
    const double b = std::min(100.0, a + 13.7);
    // Bit-identical, not just close: the guard must not rewrite healthy
    // answers.
    EXPECT_EQ(chain.EstimateSelectivity(a, b),
              raw.value()->EstimateSelectivity(a, b));
  }
  EXPECT_FALSE(chain.stats().degraded());
}

TEST(GuardedEstimatorTest, RepairsNanAndInvertedQueries) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  auto guarded = MakeGuarded({0.25}, domain);
  EXPECT_EQ(guarded->EstimateSelectivity(kNan, 5.0), 0.25);
  EXPECT_EQ(guarded->EstimateSelectivity(2.0, kNan), 0.25);
  EXPECT_EQ(guarded->EstimateSelectivity(kNan, kNan), 0.25);
  EXPECT_EQ(guarded->EstimateSelectivity(8.0, 2.0), 0.25);  // inverted
  EXPECT_EQ(guarded->EstimateSelectivity(-kInf, kInf), 0.25);
  EXPECT_EQ(guarded->stats().repaired_queries, 4u);  // ±inf clamp is not a repair
}

TEST(GuardedEstimatorTest, ClampsOutOfRangeEstimates) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  EXPECT_EQ(MakeGuarded({1.75}, domain)->EstimateSelectivity(1.0, 2.0), 1.0);
  EXPECT_EQ(MakeGuarded({-0.5}, domain)->EstimateSelectivity(1.0, 2.0), 0.0);
  auto guarded = MakeGuarded({2.5}, domain);
  guarded->EstimateSelectivity(0.0, 1.0);
  EXPECT_EQ(guarded->stats().clamped_estimates, 1u);
}

TEST(GuardedEstimatorTest, FallsBackPastPoisonedLinks) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  auto guarded = MakeGuarded({kNan, kInf, 0.5}, domain);
  EXPECT_EQ(guarded->EstimateSelectivity(1.0, 2.0), 0.5);
  const GuardedStats stats = guarded->stats();
  EXPECT_EQ(stats.fallback_estimates, 1u);
  EXPECT_EQ(stats.uniform_rescues, 0u);
  EXPECT_TRUE(stats.degraded());
}

TEST(GuardedEstimatorTest, UniformRescueWhenWholeChainIsPoisoned) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  auto guarded = MakeGuarded({kNan, -kInf}, domain);
  EXPECT_DOUBLE_EQ(guarded->EstimateSelectivity(2.0, 7.0), 0.5);
  EXPECT_EQ(guarded->stats().uniform_rescues, 1u);
}

TEST(GuardedEstimatorTest, EmptyChainAnswersUniformly) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  auto guarded = MakeGuarded({}, domain);
  EXPECT_DOUBLE_EQ(guarded->EstimateSelectivity(0.0, 5.0), 0.5);
  EXPECT_EQ(guarded->name(), "guarded(uniform)");
}

TEST(GuardedEstimatorTest, BatchMatchesScalarIncludingMalformedQueries) {
  const Domain domain = ContinuousDomain(0.0, 10.0);
  auto guarded = MakeGuarded({kNan, 0.5}, domain);
  const std::vector<RangeQuery> queries = {
      {1.0, 2.0}, {kNan, 3.0}, {9.0, 1.0}, {-kInf, kInf}};
  std::vector<double> batch(queries.size());
  guarded->EstimateSelectivityBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], guarded->EstimateSelectivity(queries[i]));
  }
}

TEST(GuardedEstimatorTest, BuildDegradesWhenPrimaryCannotBuild) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = kNan;  // a bandwidth no kernel can use
  const std::vector<double> sample = MakeSample(200);
  auto guarded = BuildGuardedEstimator(sample, domain, config);
  ASSERT_TRUE(guarded.ok());
  EXPECT_FALSE(guarded->primary_status.ok());
  EXPECT_TRUE(guarded->degraded());
  // The fallback ladder (equi-width, then uniform) still answers.
  const double estimate = guarded->estimator->EstimateSelectivity(10.0, 30.0);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
  EXPECT_NE(guarded->estimator->name().find("guarded("), std::string::npos);
  EXPECT_NE(guarded->estimator->name().find("equi-width"), std::string::npos);
}

TEST(GuardedEstimatorTest, BuildSurvivesEmptySampleViaUniform) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  auto guarded = BuildGuardedEstimator({}, domain, config);
  ASSERT_TRUE(guarded.ok());
  EXPECT_FALSE(guarded->primary_status.ok());
  // Every fallback needing a sample fails too; the uniform rung answers.
  EXPECT_DOUBLE_EQ(guarded->estimator->EstimateSelectivity(0.0, 50.0), 0.5);
}

TEST(GuardedEstimatorTest, BuildSurvivesInjectedBuildFaults) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  const std::vector<double> sample = MakeSample(200);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  {
    ScopedFault fault(kFaultPointEstimatorBuild);
    auto guarded = BuildGuardedEstimator(sample, domain, config);
    ASSERT_TRUE(guarded.ok());
    EXPECT_EQ(guarded->primary_status.code(), StatusCode::kInternal);
    // Fallback builds hit the same fault point, so only uniform remains —
    // and it must, because it is built outside BuildEstimator.
    EXPECT_EQ(guarded->estimator->chain_length(), 1u);
    EXPECT_DOUBLE_EQ(guarded->estimator->EstimateSelectivity(0.0, 25.0), 0.25);
  }
  FaultInjector::DisarmAll();
}

TEST(GuardedEstimatorTest, BuildRejectsUnusableDomain) {
  EstimatorConfig config;
  Domain inverted;
  inverted.lo = 10.0;
  inverted.hi = 0.0;
  EXPECT_FALSE(BuildGuardedEstimator(MakeSample(50), inverted, config).ok());
  Domain nan_domain;
  nan_domain.lo = kNan;
  nan_domain.hi = 1.0;
  EXPECT_FALSE(BuildGuardedEstimator(MakeSample(50), nan_domain, config).ok());
}

// --- Factory hardening: malformed external input is a Status, not an
// abort, for every estimator kind. ---

TEST(EstimatorFactoryRobustnessTest, RejectsNonFiniteSampleValues) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  std::vector<double> sample = MakeSample(100);
  sample[50] = kNan;
  for (const EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kKernel, EstimatorKind::kSampling,
        EstimatorKind::kWavelet}) {
    EstimatorConfig config;
    config.kind = kind;
    const auto estimator = BuildEstimator(sample, domain, config);
    ASSERT_FALSE(estimator.ok()) << EstimatorKindName(kind);
    EXPECT_EQ(estimator.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EstimatorFactoryRobustnessTest, RejectsAbsurdFixedSmoothing) {
  const Domain domain = ContinuousDomain(0.0, 100.0);
  const std::vector<double> sample = MakeSample(100);
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  for (const double bad : {kNan, kInf, 1e30}) {
    config.fixed_smoothing = bad;
    const auto estimator = BuildEstimator(sample, domain, config);
    ASSERT_FALSE(estimator.ok()) << bad;
    EXPECT_EQ(estimator.status().code(), StatusCode::kInvalidArgument);
  }
  config.kind = EstimatorKind::kKernel;
  for (const double bad : {kNan, 0.0, -1.0}) {
    config.fixed_smoothing = bad;
    EXPECT_FALSE(BuildEstimator(sample, domain, config).ok()) << bad;
  }
}

TEST(EstimatorFactoryRobustnessTest, ClampsBinCountToDiscreteCardinality) {
  // A 3-bit domain has 8 representable values; asking for 1000 bins must
  // build an 8-bin histogram, not 992 empty bins.
  const Domain domain = BitDomain(3);
  const std::vector<double> sample = {0, 1, 2, 3, 4, 5, 6, 7};
  EstimatorConfig config;
  config.kind = EstimatorKind::kEquiWidth;
  config.smoothing = SmoothingRule::kFixed;
  config.fixed_smoothing = 1000.0;
  const auto estimator = BuildEstimator(sample, domain, config);
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  EXPECT_EQ(estimator.value()->name(), "equi-width(8)");
}

TEST(EstimatorFactoryRobustnessTest, SingleValueSampleIsStatusNotAbort) {
  // Zero spread defeats the data-driven smoothing rules; whatever each
  // kind does, it must answer with ok() or a Status — never abort.
  const Domain domain = ContinuousDomain(0.0, 100.0);
  const std::vector<double> sample(50, 42.0);
  for (const EstimatorKind kind :
       {EstimatorKind::kEquiWidth, EstimatorKind::kEquiDepth,
        EstimatorKind::kMaxDiff, EstimatorKind::kKernel,
        EstimatorKind::kHybrid, EstimatorKind::kAverageShifted}) {
    EstimatorConfig config;
    config.kind = kind;
    const auto estimator = BuildEstimator(sample, domain, config);
    if (estimator.ok()) {
      const double value = estimator.value()->EstimateSelectivity(40.0, 45.0);
      EXPECT_TRUE(std::isfinite(value)) << EstimatorKindName(kind);
    }
  }
}

}  // namespace
}  // namespace selest
