// Hybrid histogram/kernel estimator (§3.3) — the paper's new method.
//
// Kernel estimators assume a smooth density; real data (street maps,
// survey weights) have change points where the density jumps and the kernel
// error concentrates. The hybrid estimator:
//
//   1. evaluates a reflecting pilot density (density/kde.h) on a grid and
//      detects change points at the maxima of its second derivative
//      (est/change_point.h);
//   2. partitions the domain into histogram bins at the change points and
//      merges bins holding too few samples;
//   3. runs an independent kernel estimator inside each bin — with its own
//      normal-scale bandwidth and boundary treatment at the bin edges —
//      weighted by the bin's sample fraction.
//
// On the paper's TIGER-derived files this beats both the pure kernel
// estimator and every histogram (Fig. 12).
#ifndef SELEST_EST_HYBRID_ESTIMATOR_H_
#define SELEST_EST_HYBRID_ESTIMATOR_H_

#include <span>
#include <utility>
#include <vector>

#include "src/data/domain.h"
#include "src/density/kde.h"
#include "src/density/kernel.h"
#include "src/est/change_point.h"
#include "src/est/kernel_estimator.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

struct HybridEstimatorOptions {
  ChangePointConfig change_points;
  // Pilot KDE bandwidth; 0 means "normal scale rule".
  double pilot_bandwidth = 0.0;
  // Bins holding fewer than this fraction of the samples are merged into a
  // neighbor (the paper merges bins whose record count is too small).
  double min_bin_fraction = 0.02;
  // Kernel and boundary treatment used inside each bin. The paper's Fig. 12
  // hybrid uses boundary kernel functions.
  Kernel kernel = Kernel(KernelType::kEpanechnikov);
  BoundaryPolicy boundary = BoundaryPolicy::kBoundaryKernel;
};

class HybridEstimator : public SelectivityEstimator {
 public:
  static StatusOr<HybridEstimator> Create(std::span<const double> sample,
                                          const Domain& domain,
                                          const HybridEstimatorOptions& options);

  // Sums the weighted answers of the cells the query overlaps; a cell the
  // query covers answers from its full-range value, computed once at build.
  // NaN and inverted bounds answer 0.
  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  // Bin boundaries actually used (after merging), including both domain
  // endpoints; size() is number of bins + 1.
  const std::vector<double>& partition() const { return partition_; }
  size_t num_bins() const { return cells_.size(); }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kHybrid;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<HybridEstimator> DeserializeState(ByteReader& reader);

 private:
  struct Cell {
    Cell(const Domain& domain, double cell_weight,
         KernelEstimator cell_estimator)
        : bin_domain(domain),
          weight(cell_weight),
          estimator(std::move(cell_estimator)),
          full_range(estimator.EstimateSelectivity(domain.lo, domain.hi)) {}

    Domain bin_domain;
    double weight;  // fraction of samples in this bin
    KernelEstimator estimator;
    // estimator's answer over the whole bin; derived, not persisted.
    double full_range;
  };

  HybridEstimator(std::vector<double> partition, std::vector<Cell> cells)
      : partition_(std::move(partition)), cells_(std::move(cells)) {}

  std::vector<double> partition_;
  std::vector<Cell> cells_;
};

}  // namespace selest

#endif  // SELEST_EST_HYBRID_ESTIMATOR_H_
