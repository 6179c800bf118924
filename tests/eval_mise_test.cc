#include <cmath>
#include "src/eval/mise.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/density/kde.h"
#include "src/est/equi_width_histogram.h"
#include "src/smoothing/amise.h"
#include "src/smoothing/normal_scale.h"
#include "src/util/numeric.h"

namespace selest {
namespace {

TEST(IseTest, PerfectEstimateHasZeroIse) {
  const NormalDistribution truth(0.0, 1.0);
  const DensityFn estimate = [&truth](double x) { return truth.Pdf(x); };
  EXPECT_NEAR(IntegratedSquaredError(estimate, truth, -8.0, 8.0), 0.0, 1e-15);
}

TEST(IseTest, KnownOffsetError) {
  // Estimate identically zero: ISE = ∫ f² = R(f) = 1/(2√π σ).
  const NormalDistribution truth(0.0, 2.0);
  const DensityFn zero = [](double) { return 0.0; };
  const double expected = 1.0 / (2.0 * std::sqrt(M_PI) * 2.0);
  EXPECT_NEAR(IntegratedSquaredError(zero, truth, -20.0, 20.0), expected,
              1e-6);
}

TEST(MiseTest, KdeMiseNearAmisePrediction) {
  // Gaussian truth, Epanechnikov KDE at the AMISE-optimal bandwidth: the
  // empirical MISE should be within a factor ~2 of the AMISE value.
  const double sigma = 1.0;
  const NormalDistribution truth(0.0, sigma);
  const Domain domain = ContinuousDomain(-8.0, 8.0);
  const size_t n = 2000;
  const double r2 = DensitySecondDerivativeRoughness(truth, -8.0, 8.0);
  const double h_opt = OptimalBandwidth(n, r2);
  const double amise = KernelAmise(h_opt, n, r2);

  MiseOptions options;
  options.trials = 5;
  options.sample_size = n;
  options.intervals = 1024;
  const double mise = EstimateMise(
      [&](std::span<const double> sample) -> DensityFn {
        auto kde = std::make_shared<Kde>(
            Kde::Create(sample, h_opt, domain).value());
        return [kde](double x) { return kde->Density(x); };
      },
      truth, domain, options);
  EXPECT_GT(mise, 0.3 * amise);
  EXPECT_LT(mise, 3.0 * amise);
}

TEST(MiseTest, EquiWidthMiseNearAmisePrediction) {
  // §4.1: Gaussian truth, equi-width histogram at the AMISE-optimal bin
  // count; the empirical MISE should be within a factor 2 of the AMISE at
  // the bin width actually used.
  const NormalDistribution truth(0.0, 1.0);
  const Domain domain = ContinuousDomain(-8.0, 8.0);
  const size_t n = 2000;
  const double r1 = DensityDerivativeRoughness(truth, -8.0, 8.0);
  const int bins = static_cast<int>(
      std::lround(domain.width() / OptimalBinWidth(n, r1)));
  ASSERT_EQ(bins, 58);
  const double amise = HistogramAmise(domain.width() / bins, n, r1);

  MiseOptions options;
  options.trials = 5;
  options.sample_size = n;
  options.intervals = 1024;
  const double mise = EstimateMise(
      [&](std::span<const double> sample) -> DensityFn {
        auto histogram = std::make_shared<EquiWidthHistogram>(
            EquiWidthHistogram::Create(sample, domain, bins).value());
        return [histogram](double x) { return histogram->bins().Density(x); };
      },
      truth, domain, options);
  EXPECT_GT(mise, 0.5 * amise);
  EXPECT_LT(mise, 2.0 * amise);
}

TEST(MiseTest, KernelConvergenceRateNearMinusFourFifths) {
  // §4.2: AMISE(h_K) = O(n^−4/5). Fit the empirical log-log slope.
  const NormalDistribution truth(0.0, 1.0);
  const Domain domain = ContinuousDomain(-8.0, 8.0);
  const double r2 = DensitySecondDerivativeRoughness(truth, -8.0, 8.0);
  std::vector<double> sizes{250, 1000, 4000, 16000};
  std::vector<double> errors;
  for (double n : sizes) {
    const double h = OptimalBandwidth(static_cast<size_t>(n), r2);
    MiseOptions options;
    options.trials = 6;
    options.sample_size = static_cast<size_t>(n);
    options.intervals = 1024;
    options.seed = 11;
    errors.push_back(EstimateMise(
        [&](std::span<const double> sample) -> DensityFn {
          auto kde = std::make_shared<Kde>(
              Kde::Create(sample, h, domain).value());
          return [kde](double x) { return kde->Density(x); };
        },
        truth, domain, options));
  }
  const double slope = LogLogSlope(sizes, errors);
  EXPECT_NEAR(slope, -0.8, 0.2);
}

TEST(MiseTest, HistogramConvergenceRateNearMinusTwoThirds) {
  // §4.1: AMISE(h_EW) = O(n^−2/3).
  const NormalDistribution truth(0.0, 1.0);
  const Domain domain = ContinuousDomain(-8.0, 8.0);
  const double r1 = DensityDerivativeRoughness(truth, -8.0, 8.0);
  std::vector<double> sizes{250, 1000, 4000, 16000};
  std::vector<double> errors;
  for (double n : sizes) {
    const double h = OptimalBinWidth(static_cast<size_t>(n), r1);
    const int bins =
        std::max(1, static_cast<int>(std::lround(domain.width() / h)));
    MiseOptions options;
    options.trials = 6;
    options.sample_size = static_cast<size_t>(n);
    options.intervals = 1024;
    options.seed = 13;
    errors.push_back(EstimateMise(
        [&](std::span<const double> sample) -> DensityFn {
          auto histogram = std::make_shared<EquiWidthHistogram>(
              EquiWidthHistogram::Create(sample, domain, bins).value());
          return [histogram](double x) { return histogram->bins().Density(x); };
        },
        truth, domain, options));
  }
  const double slope = LogLogSlope(sizes, errors);
  EXPECT_NEAR(slope, -2.0 / 3.0, 0.2);
}

TEST(MiseTest, KernelBeatsHistogramAtEqualSampleSize) {
  const NormalDistribution truth(0.0, 1.0);
  const Domain domain = ContinuousDomain(-8.0, 8.0);
  const double r1 = DensityDerivativeRoughness(truth, -8.0, 8.0);
  const double r2 = DensitySecondDerivativeRoughness(truth, -8.0, 8.0);
  const size_t n = 4000;
  MiseOptions options;
  options.trials = 5;
  options.sample_size = n;
  options.intervals = 1024;
  options.seed = 17;
  const double h_k = OptimalBandwidth(n, r2);
  const double kernel_mise = EstimateMise(
      [&](std::span<const double> sample) -> DensityFn {
        auto kde =
            std::make_shared<Kde>(Kde::Create(sample, h_k, domain).value());
        return [kde](double x) { return kde->Density(x); };
      },
      truth, domain, options);
  const int bins = std::max(
      1, static_cast<int>(std::lround(domain.width() /
                                      OptimalBinWidth(n, r1))));
  const double histogram_mise = EstimateMise(
      [&](std::span<const double> sample) -> DensityFn {
        auto histogram = std::make_shared<EquiWidthHistogram>(
            EquiWidthHistogram::Create(sample, domain, bins).value());
        return [histogram](double x) { return histogram->bins().Density(x); };
      },
      truth, domain, options);
  EXPECT_LT(kernel_mise, histogram_mise);
}

TEST(LogLogSlopeTest, ExactPowerLaw) {
  const std::vector<double> n{10, 100, 1000};
  std::vector<double> errors;
  for (double x : n) errors.push_back(5.0 * std::pow(x, -0.8));
  EXPECT_NEAR(LogLogSlope(n, errors), -0.8, 1e-12);
}

TEST(LogLogSlopeTest, PositiveSlope) {
  const std::vector<double> n{10, 100};
  const std::vector<double> errors{1.0, 10.0};
  EXPECT_NEAR(LogLogSlope(n, errors), 1.0, 1e-12);
}

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(InverseNormalCdf(0.8413447460685429), 1.0, 1e-7);
}

TEST(InverseNormalCdfTest, RoundTripsThroughCdf) {
  for (double p : {0.001, 0.01, 0.2, 0.5, 0.77, 0.99, 0.9999}) {
    const double z = InverseNormalCdf(p);
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(cdf, p, 1e-9) << p;
  }
}

}  // namespace
}  // namespace selest
