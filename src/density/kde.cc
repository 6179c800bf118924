#include "src/density/kde.h"

#include <algorithm>
#include <cmath>

#include "src/density/boundary_kernel.h"
#include "src/density/epanechnikov_cdf_table.h"
#include "src/util/check.h"

namespace selest {

const char* BoundaryPolicyName(BoundaryPolicy policy) {
  switch (policy) {
    case BoundaryPolicy::kNone:
      return "none";
    case BoundaryPolicy::kReflection:
      return "reflection";
    case BoundaryPolicy::kBoundaryKernel:
      return "boundary-kernel";
  }
  return "unknown";
}

StatusOr<Kde> Kde::Create(std::span<const double> sample, double bandwidth,
                          const Domain& domain, Kernel kernel,
                          BoundaryPolicy boundary) {
  if (sample.empty()) {
    return InvalidArgumentError("kde needs a non-empty sample");
  }
  if (!std::all_of(sample.begin(), sample.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError("kde samples must be finite");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return InvalidArgumentError("kde bandwidth must be positive and finite");
  }
  if (boundary == BoundaryPolicy::kBoundaryKernel &&
      kernel.type() != KernelType::kEpanechnikov) {
    return InvalidArgumentError(
        "boundary kernels extend the Epanechnikov kernel only");
  }
  return Kde(EffectiveSample(sample, domain, boundary,
                             kernel.support_radius() * bandwidth),
             sample.size(), bandwidth, domain, kernel, boundary);
}

Kde::Kde(std::vector<double> samples, size_t original_count, double bandwidth,
         const Domain& domain, Kernel kernel, BoundaryPolicy boundary)
    : samples_(std::move(samples)),
      original_count_(original_count),
      bandwidth_(bandwidth),
      domain_(domain),
      kernel_(kernel),
      boundary_(boundary) {}

double Kde::Density(double x) const {
  if (boundary_ == BoundaryPolicy::kBoundaryKernel) {
    return BoundaryKernelDensity(x);
  }
  return PlainDensity(x);
}

double Kde::PlainDensity(double x) const {
  const double radius = kernel_.support_radius() * bandwidth_;
  const auto first =
      std::lower_bound(samples_.begin(), samples_.end(), x - radius);
  const auto last =
      std::upper_bound(samples_.begin(), samples_.end(), x + radius);
  double sum = 0.0;
  for (auto it = first; it != last; ++it) {
    sum += kernel_.Value((x - *it) / bandwidth_);
  }
  // Normalization uses the original n even when reflected copies exist:
  // reflection re-assigns each boundary sample's outside mass, it does not
  // add samples.
  return sum / (static_cast<double>(original_count_) * bandwidth_);
}

double Kde::BoundaryKernelDensity(double x) const {
  const double h = bandwidth_;
  const bool near_left = x - domain_.lo < h;
  const bool near_right = domain_.hi - x < h;
  if (!near_left && !near_right) return PlainDensity(x);

  double sum = 0.0;
  if (near_left) {
    const double q = std::clamp((x - domain_.lo) / h, 0.0, 1.0);
    // Support of K^(l)((x−X)/h, q) is X in [x − qh, x + h].
    const auto first =
        std::lower_bound(samples_.begin(), samples_.end(), x - q * h);
    const auto last =
        std::upper_bound(samples_.begin(), samples_.end(), x + h);
    for (auto it = first; it != last; ++it) {
      sum += LeftBoundaryKernel((x - *it) / h, q);
    }
  } else {
    const double q = std::clamp((domain_.hi - x) / h, 0.0, 1.0);
    // Support of K^(r)((x−X)/h, q) is X in [x − h, x + qh].
    const auto first =
        std::lower_bound(samples_.begin(), samples_.end(), x - h);
    const auto last =
        std::upper_bound(samples_.begin(), samples_.end(), x + q * h);
    for (auto it = first; it != last; ++it) {
      sum += RightBoundaryKernel((x - *it) / h, q);
    }
  }
  return sum / (static_cast<double>(original_count_) * h);
}

std::vector<double> EffectiveSample(std::span<const double> sample,
                                    const Domain& domain,
                                    BoundaryPolicy boundary, double radius) {
  std::vector<double> points(sample.begin(), sample.end());
  if (boundary == BoundaryPolicy::kReflection) {
    // Points within one kernel radius of a boundary are counted twice.
    for (const double x : sample) {
      if (x - domain.lo < radius) points.push_back(2.0 * domain.lo - x);
      if (domain.hi - x < radius) points.push_back(2.0 * domain.hi - x);
    }
  }
  std::sort(points.begin(), points.end());
  return points;
}

std::function<double(double)> ReflectedPilotDensity(
    std::span<const double> sample, double bandwidth, const Domain& domain,
    Kernel kernel) {
  if (kernel.type() != KernelType::kEpanechnikov) {
    auto kde = Kde::Create(sample, bandwidth, domain, kernel,
                           BoundaryPolicy::kReflection);
    SELEST_CHECK(kde.ok());
    return std::move(kde).value();
  }
  SELEST_CHECK(!sample.empty());
  // Σ_i K(u_i)/h over the reflected sample, divided by the original n as
  // Kde::Density divides it.
  const double n = static_cast<double>(sample.size());
  return [table = EpanechnikovCdfTable(
              EffectiveSample(sample, domain, BoundaryPolicy::kReflection,
                              bandwidth),
              bandwidth),
          n](double x) { return table.Derivative(x) / n; };
}

}  // namespace selest
