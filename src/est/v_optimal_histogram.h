// V-optimal histogram (Jagadish et al., the paper's reference [7]).
//
// The paper compares equi-width, equi-depth and max-diff; V-optimal is the
// strongest classical bucketing scheme and a natural beyond-the-paper
// baseline. Buckets are chosen by dynamic programming to minimize the
// sum of squared deviations of the (pre-binned) frequencies from their
// bucket means — the optimal piecewise-constant approximation of the
// frequency distribution.
//
// The continuous sample is first accumulated onto `base_bins` fine
// equi-width cells; the DP then merges cells into `num_buckets` buckets in
// O(base_bins² · num_buckets).
#ifndef SELEST_EST_V_OPTIMAL_HISTOGRAM_H_
#define SELEST_EST_V_OPTIMAL_HISTOGRAM_H_

#include <span>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class VOptimalHistogram : public SelectivityEstimator {
 public:
  // Requires 1 <= num_buckets <= base_bins; base_bins bounds both the DP
  // cost and the bucket-boundary resolution.
  static StatusOr<VOptimalHistogram> Create(std::span<const double> sample,
                                            const Domain& domain,
                                            int num_buckets,
                                            int base_bins = 512);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override { return bins_.StorageBytes(); }
  std::string name() const override;

  int num_buckets() const { return static_cast<int>(bins_.num_bins()); }
  const BinnedDensity& bins() const { return bins_; }
  // The SSE achieved by the chosen partition (for tests: optimality).
  double sse() const { return sse_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kVOptimal;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<VOptimalHistogram> DeserializeState(ByteReader& reader);

 private:
  VOptimalHistogram(BinnedDensity bins, double sse)
      : bins_(std::move(bins)), sse_(sse) {}

  BinnedDensity bins_;
  double sse_;
};

}  // namespace selest

#endif  // SELEST_EST_V_OPTIMAL_HISTOGRAM_H_
