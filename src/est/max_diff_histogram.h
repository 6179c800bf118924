// Max-diff histogram estimator ([8], §3.1).
//
// With k bins, the k−1 adjacent sample pairs with the largest value gaps
// are found and a bin boundary is placed inside each gap. On the paper's
// large metric domains this policy trails the equi-width histogram —
// the opposite of the small-domain result of [8] (see §5.2.4).
#ifndef SELEST_EST_MAX_DIFF_HISTOGRAM_H_
#define SELEST_EST_MAX_DIFF_HISTOGRAM_H_

#include <span>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class MaxDiffHistogram : public SelectivityEstimator {
 public:
  static StatusOr<MaxDiffHistogram> Create(std::span<const double> sample,
                                           const Domain& domain, int num_bins);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override { return bins_.StorageBytes(); }
  std::string name() const override;

  int num_bins() const { return static_cast<int>(bins_.num_bins()); }
  const BinnedDensity& bins() const { return bins_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kMaxDiff;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<MaxDiffHistogram> DeserializeState(ByteReader& reader);

 private:
  explicit MaxDiffHistogram(BinnedDensity bins) : bins_(std::move(bins)) {}

  BinnedDensity bins_;
};

}  // namespace selest

#endif  // SELEST_EST_MAX_DIFF_HISTOGRAM_H_
