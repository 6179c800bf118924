#include "src/online/online_estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/smoothing/normal_scale.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace selest {
namespace {

IntervalEstimate MakeInterval(double mean, double variance, size_t n,
                              double confidence) {
  SELEST_CHECK_GT(confidence, 0.0);
  SELEST_CHECK_LT(confidence, 1.0);
  IntervalEstimate result;
  result.estimate = std::clamp(mean, 0.0, 1.0);
  result.samples = n;
  if (n < 2) return result;  // trivial [0, 1] interval
  const double z = InverseNormalCdf(0.5 + 0.5 * confidence);
  const double half =
      z * std::sqrt(std::max(variance, 0.0) / static_cast<double>(n));
  result.lo = std::max(0.0, result.estimate - half);
  result.hi = std::min(1.0, result.estimate + half);
  return result;
}

// Sum and sum of squares of the per-sample kernel contributions w_i over
// [a, b]; `sorted` must be ascending and a < b.
double ContributionSum(const std::vector<double>& sorted, const Kernel& kernel,
                       double h, double a, double b, double& sum_sq) {
  const double radius = kernel.support_radius() * h;
  double sum = 0.0;
  const auto add = [&](double w) {
    sum += w;
    sum_sq += w * w;
  };
  const auto contribution = [&](double x) {
    return kernel.Cdf((b - x) / h) - kernel.Cdf((a - x) / h);
  };
  // Contributions are exactly 1 in the core, exactly 0 outside the fringe;
  // only fringe samples need explicit evaluation.
  if (a + radius <= b - radius) {
    const auto full_lo =
        std::lower_bound(sorted.begin(), sorted.end(), a + radius);
    const auto full_hi =
        std::upper_bound(sorted.begin(), sorted.end(), b - radius);
    const double full = static_cast<double>(full_hi - full_lo);
    sum += full;     // w = 1 each
    sum_sq += full;  // w² = 1 each
    const auto left_lo =
        std::lower_bound(sorted.begin(), sorted.end(), a - radius);
    for (auto it = left_lo; it != full_lo; ++it) add(contribution(*it));
    const auto right_hi =
        std::upper_bound(sorted.begin(), sorted.end(), b + radius);
    for (auto it = full_hi; it != right_hi; ++it) add(contribution(*it));
  } else {
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), a - radius);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), b + radius);
    for (auto it = lo; it != hi; ++it) add(contribution(*it));
  }
  return sum;
}

}  // namespace

OnlineSelectivityEstimator::OnlineSelectivityEstimator(const Domain& domain,
                                                       Kernel kernel)
    : domain_(domain), kernel_(kernel) {}

void OnlineSelectivityEstimator::AddSample(double value) {
  values_.push_back(value);
}

void OnlineSelectivityEstimator::AddSamples(std::span<const double> values) {
  values_.insert(values_.end(), values.begin(), values.end());
}

void OnlineSelectivityEstimator::EnsureSorted() const {
  if (sorted_prefix_ == values_.size()) return;
  // Merge the unsorted tail into the sorted prefix.
  std::sort(values_.begin() + static_cast<long>(sorted_prefix_),
            values_.end());
  std::inplace_merge(values_.begin(),
                     values_.begin() + static_cast<long>(sorted_prefix_),
                     values_.end());
  sorted_prefix_ = values_.size();
}

double OnlineSelectivityEstimator::CurrentBandwidth() const {
  if (values_.size() < 2) return domain_.width() / 100.0;
  EnsureSorted();
  return NormalScaleBandwidth(values_, domain_, kernel_);
}

IntervalEstimate OnlineSelectivityEstimator::Estimate(
    const RangeQuery& query, double confidence) const {
  const size_t n = values_.size();
  if (n < 2) {
    IntervalEstimate trivial;
    trivial.samples = n;
    return trivial;
  }
  EnsureSorted();
  const double a = domain_.Clamp(query.a);
  const double b = domain_.Clamp(query.b);
  if (a >= b) return MakeInterval(0.0, 0.0, n, confidence);

  const double h = NormalScaleBandwidth(values_, domain_, kernel_);
  // Sum and sum of squares give mean and variance of the w_i.
  double sum_sq = 0.0;
  const double sum = ContributionSum(values_, kernel_, h, a, b, sum_sq);
  const double mean = sum / static_cast<double>(n);
  const double variance = sum_sq / static_cast<double>(n) - mean * mean;
  return MakeInterval(mean, variance, n, confidence);
}

IntervalEstimate OnlineSelectivityEstimator::SamplingEstimate(
    const RangeQuery& query, double confidence) const {
  const size_t n = values_.size();
  if (n < 2) {
    IntervalEstimate trivial;
    trivial.samples = n;
    return trivial;
  }
  EnsureSorted();
  const auto lo = std::lower_bound(values_.begin(), values_.end(), query.a);
  const auto hi = std::upper_bound(values_.begin(), values_.end(), query.b);
  const double p =
      static_cast<double>(hi - lo) / static_cast<double>(n);
  return MakeInterval(p, p * (1.0 - p), n, confidence);
}

}  // namespace selest
