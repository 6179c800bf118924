// Equi-depth histogram estimator ([3], §3.1).
//
// Bin edges are placed at sample quantiles so every bin holds the same
// number of samples. Heavy duplication can collapse edges; the resulting
// zero-width bins are treated as atoms by BinnedDensity.
#ifndef SELEST_EST_EQUI_DEPTH_HISTOGRAM_H_
#define SELEST_EST_EQUI_DEPTH_HISTOGRAM_H_

#include <span>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class EquiDepthHistogram : public SelectivityEstimator {
 public:
  static StatusOr<EquiDepthHistogram> Create(std::span<const double> sample,
                                             const Domain& domain,
                                             int num_bins);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override { return bins_.StorageBytes(); }
  std::string name() const override;

  int num_bins() const { return static_cast<int>(bins_.num_bins()); }
  const BinnedDensity& bins() const { return bins_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kEquiDepth;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<EquiDepthHistogram> DeserializeState(ByteReader& reader);

  // Approximate incremental maintenance. Equi-depth edges are sample
  // quantiles, so two histograms cannot merge exactly; MergeFrom combines
  // the two piecewise-linear CDFs over the union of their edges and
  // re-places this histogram's bin count at the combined quantiles. The
  // drift against Build(A ∪ B) is bounded by the quantile interpolation
  // error within one union segment (property-tested as bounded MRE drift).
  // Both operands must cover the same domain (identical outer edges).
  bool SupportsMerge() const override { return true; }
  Status MergeFrom(const SelectivityEstimator& other) override;
  // Folds rows by building an equi-depth histogram over them (same domain
  // and bin count) and merging it in. Empty spans are the identity.
  Status FoldRows(std::span<const double> rows) override;

 private:
  explicit EquiDepthHistogram(BinnedDensity bins) : bins_(std::move(bins)) {}

  BinnedDensity bins_;
};

}  // namespace selest

#endif  // SELEST_EST_EQUI_DEPTH_HISTOGRAM_H_
