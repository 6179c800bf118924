#include "src/online/online_estimator.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

TEST(OnlineEstimatorTest, TrivialIntervalBeforeTwoSamples) {
  OnlineSelectivityEstimator est(kDomain);
  const RangeQuery q{10.0, 20.0};
  const IntervalEstimate empty = est.Estimate(q);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
  est.AddSample(15.0);
  EXPECT_DOUBLE_EQ(est.Estimate(q).hi, 1.0);
}

TEST(OnlineEstimatorTest, SamplingEstimateMatchesFraction) {
  OnlineSelectivityEstimator est(kDomain);
  for (double v : {5.0, 15.0, 16.0, 80.0}) est.AddSample(v);
  const IntervalEstimate e = est.SamplingEstimate({10.0, 20.0});
  EXPECT_DOUBLE_EQ(e.estimate, 0.5);
  EXPECT_EQ(e.samples, 4u);
  EXPECT_GT(e.lo, 0.0 - 1e-12);
  EXPECT_LT(e.lo, 0.5);
  EXPECT_GT(e.hi, 0.5);
}

TEST(OnlineEstimatorTest, EstimateConvergesToTruth) {
  Rng rng(1);
  OnlineSelectivityEstimator est(kDomain);
  const RangeQuery q{20.0, 40.0};  // truth = 0.2 under uniform data
  for (int i = 0; i < 20000; ++i) est.AddSample(100.0 * rng.NextDouble());
  const IntervalEstimate kernel = est.Estimate(q);
  const IntervalEstimate sampling = est.SamplingEstimate(q);
  EXPECT_NEAR(kernel.estimate, 0.2, 0.02);
  EXPECT_NEAR(sampling.estimate, 0.2, 0.02);
}

TEST(OnlineEstimatorTest, IntervalsShrinkWithMoreSamples) {
  Rng rng(2);
  OnlineSelectivityEstimator est(kDomain);
  const RangeQuery q{30.0, 50.0};
  for (int i = 0; i < 100; ++i) est.AddSample(100.0 * rng.NextDouble());
  const double early_width = est.Estimate(q).hi - est.Estimate(q).lo;
  for (int i = 0; i < 9900; ++i) est.AddSample(100.0 * rng.NextDouble());
  const double late_width = est.Estimate(q).hi - est.Estimate(q).lo;
  EXPECT_LT(late_width, 0.25 * early_width);  // ~1/10 expected
}

TEST(OnlineEstimatorTest, HigherConfidenceWidensInterval) {
  Rng rng(3);
  OnlineSelectivityEstimator est(kDomain);
  for (int i = 0; i < 1000; ++i) est.AddSample(100.0 * rng.NextDouble());
  const RangeQuery q{10.0, 30.0};
  const IntervalEstimate at90 = est.Estimate(q, 0.90);
  const IntervalEstimate at99 = est.Estimate(q, 0.99);
  EXPECT_GT(at99.hi - at99.lo, at90.hi - at90.lo);
}

TEST(OnlineEstimatorTest, ConfidenceIntervalCovers) {
  // Repeated independent runs: the 95% interval should contain the true
  // selectivity in roughly 95% of runs (allow down to 85% — the kernel
  // estimate carries a small smoothing bias).
  const RangeQuery q{25.0, 45.0};  // truth 0.2
  int covered = 0;
  const int runs = 200;
  for (int run = 0; run < runs; ++run) {
    Rng rng(1000 + run);
    OnlineSelectivityEstimator est(kDomain);
    for (int i = 0; i < 500; ++i) est.AddSample(100.0 * rng.NextDouble());
    const IntervalEstimate e = est.Estimate(q, 0.95);
    if (e.lo <= 0.2 && 0.2 <= e.hi) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(0.85 * runs));
}

TEST(OnlineEstimatorTest, KernelIntervalTighterThanSampling) {
  // The kernel contributions have sub-Bernoulli variance when query edges
  // cut populated regions — the convergence advantage cited in §1.
  Rng rng(4);
  OnlineSelectivityEstimator est(kDomain);
  for (int i = 0; i < 5000; ++i) est.AddSample(100.0 * rng.NextDouble());
  const RangeQuery q{20.0, 40.0};
  const IntervalEstimate kernel = est.Estimate(q);
  const IntervalEstimate sampling = est.SamplingEstimate(q);
  EXPECT_LE(kernel.hi - kernel.lo, sampling.hi - sampling.lo);
}

TEST(OnlineEstimatorTest, InterleavedAddAndEstimate) {
  // Lazy sorting must stay correct when queries interleave with inserts.
  Rng rng(5);
  OnlineSelectivityEstimator est(kDomain);
  const RangeQuery q{0.0, 50.0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) est.AddSample(100.0 * rng.NextDouble());
    const IntervalEstimate e = est.SamplingEstimate(q);
    EXPECT_EQ(e.samples, static_cast<size_t>((round + 1) * 100));
    EXPECT_NEAR(e.estimate, 0.5, 0.2);
  }
}

TEST(OnlineEstimatorTest, BandwidthShrinksAsSamplesArrive) {
  Rng rng(6);
  OnlineSelectivityEstimator est(kDomain);
  for (int i = 0; i < 100; ++i) est.AddSample(100.0 * rng.NextDouble());
  const double early = est.CurrentBandwidth();
  for (int i = 0; i < 30000; ++i) est.AddSample(100.0 * rng.NextDouble());
  EXPECT_LT(est.CurrentBandwidth(), early);
}

TEST(OnlineEstimatorTest, EstimateClampedToDomainAndUnit) {
  OnlineSelectivityEstimator est(kDomain);
  est.AddSample(50.0);
  est.AddSample(51.0);
  const IntervalEstimate whole = est.Estimate({-100.0, 300.0});
  EXPECT_GE(whole.estimate, 0.0);
  EXPECT_LE(whole.estimate, 1.0);
  const IntervalEstimate inverted = est.Estimate({60.0, 40.0});
  EXPECT_DOUBLE_EQ(inverted.estimate, 0.0);
}

TEST(OnlineEstimatorTest, AddSamplesMatchesAddSampleLoop) {
  Rng rng(11);
  std::vector<double> stream(500);
  for (double& x : stream) x = 100.0 * rng.NextDouble();
  OnlineSelectivityEstimator batched(kDomain);
  OnlineSelectivityEstimator looped(kDomain);
  batched.AddSamples(stream);
  for (double x : stream) looped.AddSample(x);
  const RangeQuery q{20.0, 70.0};
  EXPECT_EQ(batched.Estimate(q).estimate, looped.Estimate(q).estimate);
  EXPECT_EQ(batched.Estimate(q).lo, looped.Estimate(q).lo);
  EXPECT_EQ(batched.samples_seen(), looped.samples_seen());
}

}  // namespace
}  // namespace selest
