// Adaptive (sample-point) bandwidth kernel estimator.
//
// A fixed bandwidth compromises between dense regions (want small h) and
// sparse regions (want large h); the paper's skewed files expose exactly
// that tension. Silverman's adaptive estimator gives each sample its own
// bandwidth
//
//   h_i = h0 · (f̂_pilot(X_i) / g)^(−1/2),   g = geometric mean of f̂_pilot,
//
// so bumps narrow where data is dense and widen in the tails. The
// selectivity integral stays closed-form — it is the average of per-sample
// kernel CDF differences, each with its own h_i. For the Epanechnikov kernel
// the sum is tabulated at construction (density/epanechnikov_cdf_table.h).
#ifndef SELEST_EST_ADAPTIVE_KERNEL_ESTIMATOR_H_
#define SELEST_EST_ADAPTIVE_KERNEL_ESTIMATOR_H_

#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/epanechnikov_cdf_table.h"
#include "src/density/kernel.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

struct AdaptiveKernelOptions {
  // Base bandwidth h0; 0 means "normal scale rule".
  double base_bandwidth = 0.0;
  Kernel kernel = Kernel(KernelType::kEpanechnikov);
  // Sensitivity exponent in [0, 1]; 0.5 is Silverman's recommendation and
  // 0 recovers the fixed-bandwidth estimator.
  double sensitivity = 0.5;
  // Cap on h_i / h0, keeping tail bandwidths bounded.
  double max_widening = 10.0;
};

class AdaptiveKernelEstimator : public SelectivityEstimator {
 public:
  static StatusOr<AdaptiveKernelEstimator> Create(
      std::span<const double> sample, const Domain& domain,
      const AdaptiveKernelOptions& options);

  // O(log n) for the Epanechnikov kernel; O(log n + k) for other shapes,
  // whose scan window the maximal bandwidth bounds. NaN and inverted
  // bounds answer 0.
  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  // The sorted sample, and each sample's bandwidth (parallel to it).
  const std::vector<double>& samples() const { return sorted_; }
  const std::vector<double>& bandwidths() const { return bandwidths_; }
  // Σ_i F((t − X_i)/h_i); empty unless the kernel is Epanechnikov.
  const EpanechnikovCdfTable& cdf_table() const { return cdf_table_; }
  double base_bandwidth() const { return base_bandwidth_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kAdaptiveKernel;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<AdaptiveKernelEstimator> DeserializeState(
      ByteReader& reader);

 private:
  AdaptiveKernelEstimator(std::vector<double> sorted,
                          std::vector<double> bandwidths, double max_bandwidth,
                          double base_bandwidth, Domain domain, Kernel kernel);

  std::vector<double> sorted_;
  std::vector<double> bandwidths_;  // parallel to sorted_
  double max_bandwidth_;
  double base_bandwidth_;
  Domain domain_;
  Kernel kernel_;
  EpanechnikovCdfTable cdf_table_;
};

}  // namespace selest

#endif  // SELEST_EST_ADAPTIVE_KERNEL_ESTIMATOR_H_
