// Kernel selectivity estimator (§3.2, Algorithm 1).
//
// The estimate integrates the kernel density over the query range:
//
//   σ̂_K(a, b) = (1/n) Σ_i ∫_{(a−X_i)/h}^{(b−X_i)/h} K(t) dt
//             = (1/n) Σ_i [F((b−X_i)/h) − F((a−X_i)/h)]
//
// with F the kernel CDF. Samples deep inside the query contribute exactly 1
// and samples far outside contribute 0, which is the case split of Alg. 1;
// keeping the samples sorted turns the evaluation into two binary searches
// plus a scan of the O(k) fringe samples near the query endpoints — the
// O(log n + k) cost the paper attributes to a search-tree organization.
//
// Boundary handling follows §3.2.1: none, reflection, or Simonoff–Dong
// boundary kernels (the latter integrates the boundary strips by
// quadrature; see DESIGN.md).
#ifndef SELEST_EST_KERNEL_ESTIMATOR_H_
#define SELEST_EST_KERNEL_ESTIMATOR_H_

#include <optional>
#include <span>
#include <vector>

#include "src/data/domain.h"
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

  // O(log n + k) estimate; the query is clamped to the domain first.
  double EstimateSelectivity(double a, double b) const override;
  // Epanechnikov batches run the vector block kernel of the active SIMD
  // tier (util/simd.h); other kernel shapes and the scalar tier take the
  // base per-query loop. Either way the batch runs on the calling thread.
  void EstimateSelectivityBatch(std::span<const RangeQuery> queries,
                                std::span<double> out) const override;

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

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kKernel;
  }
  // Persists the derived state (sorted samples with reflections applied,
  // precomputed boundary strip tables) so deserialization skips the
  // quadrature rebuild; the boundary KDE is construction-only scaffolding
  // and is not restored.
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<KernelEstimator> DeserializeState(ByteReader& reader);

 private:
  // Precomputed cumulative mass of the (truncated-at-zero) boundary-kernel
  // density over one boundary strip. Non-decreasing by construction, so
  // strip masses are monotone in the query bounds.
  struct StripTable {
    double lo = 0.0;
    double hi = 0.0;
    AlignedDoubles cumulative;  // cumulative[i] = mass of [lo, node_i]

    // Mass of [x1, x2] ∩ [lo, hi], by linear interpolation between nodes.
    double Mass(double x1, double x2) const;
    double CumulativeAt(double x) const;
  };

  KernelEstimator(AlignedDoubles sorted, size_t original_count,
                  const Domain& domain, const KernelEstimatorOptions& options,
                  std::optional<Kde> boundary_kde);

  // Sum of per-sample CDF differences over the (already clamped) range,
  // divided by the original sample count.
  double CdfSum(double a, double b) const;

  // Static inputs of the vectorized block kernel (util/simd.h): raw views
  // into this estimator's SoA hot state (sorted sample strip, boundary
  // strip tables). Valid only while this estimator is alive and unmoved —
  // build per batch call, never store.
  KernelBlockArgs MakeSimdArgs() const;

  static StripTable BuildStripTable(const Kde& kde, double lo, double hi,
                                    int nodes);

  // Reflected copies included when reflecting. Contiguous 64-byte-aligned
  // strip (SoA hot state for the vector batch kernels; DESIGN.md §12).
  AlignedDoubles sorted_;
  size_t original_count_;
  Domain domain_;
  KernelEstimatorOptions options_;
  // Boundary-kernel density for strip integration (kBoundaryKernel only).
  std::optional<Kde> boundary_kde_;
  StripTable left_strip_;
  StripTable right_strip_;
};

}  // namespace selest

#endif  // SELEST_EST_KERNEL_ESTIMATOR_H_
