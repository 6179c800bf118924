// Kernel density estimation (§3.2, equation (5)).
//
//   f̂_K(x) = (1/nh) Σ_i K((x − X_i)/h)
//
// This class evaluates the density itself, O(log n + k) per point. It backs
// the illustration of Fig. 1, the pilots of non-Epanechnikov adaptive and
// hybrid estimators, and the tests' reference density. The Epanechnikov
// pilots and the boundary strips read the derivative of a cumulative table
// instead (density/epanechnikov_cdf_table.h), O(log n) per point; the
// selectivity integral of Alg. 1 lives in est/kernel_estimator.h.
#ifndef SELEST_DENSITY_KDE_H_
#define SELEST_DENSITY_KDE_H_

#include <functional>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/kernel.h"
#include "src/util/status.h"

namespace selest {

// How the estimator treats the domain boundaries (§3.2.1).
enum class BoundaryPolicy {
  // Plain kernel estimate; loses mass outside the domain, inflating errors
  // for queries near the boundary (Fig. 3).
  kNone,
  // Samples within one bandwidth of a boundary are mirrored across it: the
  // estimate is a density again, at the price of consistency (§3.2.1).
  kReflection,
  // Simonoff–Dong boundary kernels replace the Epanechnikov kernel within
  // one bandwidth of a boundary: consistent, but the estimate need not
  // integrate to exactly one (§3.2.1).
  kBoundaryKernel,
};

const char* BoundaryPolicyName(BoundaryPolicy policy);

// A kernel density estimate over a metric domain.
class Kde {
 public:
  // Builds the estimate. Fails when the sample is empty or not finite, or
  // the bandwidth is not positive. The boundary-kernel policy requires the
  // Epanechnikov kernel (the family of §3.2.1 extends it specifically).
  static StatusOr<Kde> Create(std::span<const double> sample, double bandwidth,
                              const Domain& domain,
                              Kernel kernel = Kernel(),
                              BoundaryPolicy boundary = BoundaryPolicy::kNone);

  // Density estimate at x. O(log n + k) with k samples within one kernel
  // radius of x.
  double Density(double x) const;
  // Density(x): a Kde is itself a pilot density for DetectChangePoints.
  double operator()(double x) const { return Density(x); }

  double bandwidth() const { return bandwidth_; }
  const Kernel& kernel() const { return kernel_; }
  BoundaryPolicy boundary_policy() const { return boundary_; }
  const Domain& domain() const { return domain_; }
  // Number of original (pre-reflection) samples.
  size_t sample_size() const { return original_count_; }
  // Sorted samples, including reflected copies under kReflection.
  const std::vector<double>& effective_samples() const { return samples_; }

 private:
  Kde(std::vector<double> samples, size_t original_count, double bandwidth,
      const Domain& domain, Kernel kernel, BoundaryPolicy boundary);

  double PlainDensity(double x) const;
  double BoundaryKernelDensity(double x) const;

  std::vector<double> samples_;  // sorted; reflected copies included
  size_t original_count_;
  double bandwidth_;
  Domain domain_;
  Kernel kernel_;
  BoundaryPolicy boundary_;
};

// The points a kernel estimate sums over, sorted ascending: the sample,
// plus under kReflection a mirror copy of every point within `radius` of a
// boundary (§3.2.1). Kde::Create, the kernel estimator and the pilots
// below all take their points from here.
std::vector<double> EffectiveSample(std::span<const double> sample,
                                    const Domain& domain,
                                    BoundaryPolicy boundary, double radius);

// The pilot density of the adaptive kernel and hybrid estimators: the
// reflecting Kde of `sample` at `bandwidth`, as a callable x ↦ f̂(x). For
// the Epanechnikov kernel it reads G′(x)/n from a cumulative table over
// the reflected sample, the same density to rounding in O(log n) per point;
// other shapes evaluate Kde::Density. Requires a non-empty finite sample
// and a positive finite bandwidth.
std::function<double(double)> ReflectedPilotDensity(
    std::span<const double> sample, double bandwidth, const Domain& domain,
    Kernel kernel);

}  // namespace selest

#endif  // SELEST_DENSITY_KDE_H_
