// Kernel selectivity estimator (§3.2, Algorithm 1).
//
// The estimate integrates the kernel density over the query range:
//
//   σ̂_K(a, b) = (1/n) Σ_i ∫_{(a−X_i)/h}^{(b−X_i)/h} K(t) dt
//             = (1/n) Σ_i [F((b−X_i)/h) − F((a−X_i)/h)]
//
// with F the kernel CDF. Samples deep inside the query contribute exactly 1
// and samples far outside contribute 0, which is the case split of Alg. 1;
// the paper's search tree makes it O(log n + k) for the k samples near the
// query endpoints. For the Epanechnikov kernel the sum is tabulated at
// construction (density/epanechnikov_cdf_table.h), so a query is two
// O(log n) lookups whatever k is; other kernel shapes scan the k samples.
//
// Boundary handling follows §3.2.1: none, reflection, or Simonoff–Dong
// boundary kernels (the latter integrates the boundary strips by
// quadrature, reading the density at each node from the same table; see
// DESIGN.md).
#ifndef SELEST_EST_KERNEL_ESTIMATOR_H_
#define SELEST_EST_KERNEL_ESTIMATOR_H_

#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/epanechnikov_cdf_table.h"
#include "src/density/kde.h"
#include "src/density/kernel.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

struct KernelEstimatorOptions {
  // Bandwidth h (> 0). See src/smoothing for the rules that choose it.
  double bandwidth = 0.0;
  Kernel kernel = Kernel(KernelType::kEpanechnikov);
  BoundaryPolicy boundary = BoundaryPolicy::kNone;
  // Resolution of the precomputed cumulative-mass tables covering the two
  // boundary strips (boundary-kernel policy only). Each strip's mass
  // function is tabulated once at construction on quadrature_intervals×16
  // nodes and interpolated linearly at query time, which keeps estimates
  // exactly monotone in the query bounds.
  int quadrature_intervals = 64;
};

class KernelEstimator : public SelectivityEstimator {
 public:
  static StatusOr<KernelEstimator> Create(std::span<const double> sample,
                                          const Domain& domain,
                                          const KernelEstimatorOptions& options);

  // O(log n) for the Epanechnikov kernel, O(log n + k) for other shapes;
  // the query is clamped to the domain first. NaN and inverted bounds
  // answer 0.
  double EstimateSelectivity(double a, double b) const override;

  // Literal transcription of the paper's Algorithm 1: a Θ(n) scan with the
  // four-way case split. Requires b − a >= 2h (as the algorithm's interval
  // tests assume) and the no-boundary-treatment policy. Exposed for tests
  // and the cost benchmark.
  double EstimateSelectivityAlgorithm1(double a, double b) const;

  size_t StorageBytes() const override;
  std::string name() const override;

  double bandwidth() const { return options_.bandwidth; }
  const KernelEstimatorOptions& options() const { return options_; }
  size_t sample_size() const { return original_count_; }
  // The sorted points the estimate sums over: the sample, plus its
  // reflected copies under the reflection policy.
  const std::vector<double>& samples() const { return sorted_; }
  // Σ_i F((t − X_i)/h) over samples(); empty unless the kernel is
  // Epanechnikov.
  const EpanechnikovCdfTable& cdf_table() const { return cdf_table_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kKernel;
  }
  // Persists the derived state (sorted samples with reflections applied,
  // precomputed boundary strip tables) so deserialization skips the
  // quadrature rebuild. The CDF table is not persisted: it is rebuilt from
  // the samples in O(n), bit for bit.
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<KernelEstimator> DeserializeState(ByteReader& reader);

 private:
  // Precomputed cumulative mass of the (truncated-at-zero) boundary-kernel
  // density over one boundary strip. Non-decreasing by construction, so
  // strip masses are monotone in the query bounds.
  struct StripTable {
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> cumulative;  // cumulative[i] = mass of [lo, node_i]

    // Mass of [x1, x2] ∩ [lo, hi], by linear interpolation between nodes.
    double Mass(double x1, double x2) const;
    double CumulativeAt(double x) const;
  };

  // Builds the CDF table; Create adds the strip tables, DeserializeState
  // restores them.
  KernelEstimator(std::vector<double> sorted, size_t original_count,
                  const Domain& domain, const KernelEstimatorOptions& options);

  // Sum of per-sample CDF differences over the (already clamped) range,
  // divided by the original sample count: two table lookups for the
  // Epanechnikov kernel, the per-sample fringe scan for other shapes.
  double CdfSum(double a, double b) const;

  // The boundary-kernel density at x, as Kde::Density computes it under
  // kBoundaryKernel, from the CDF table's G′ and a count: O(log n) plus
  // the samples at or beyond a domain edge that only G′ covers.
  double BoundaryKernelDensity(double x) const;

  // Trapezoid cumulative mass of the truncated density on `nodes`
  // intervals of [lo, hi].
  StripTable BuildStripTable(double lo, double hi, int nodes) const;

  // Reflected copies included when reflecting.
  std::vector<double> sorted_;
  size_t original_count_;
  Domain domain_;
  KernelEstimatorOptions options_;
  StripTable left_strip_;
  StripTable right_strip_;
  EpanechnikovCdfTable cdf_table_;
};

}  // namespace selest

#endif  // SELEST_EST_KERNEL_ESTIMATOR_H_
