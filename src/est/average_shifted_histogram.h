// Average shifted histogram (ASH) estimator (§3.1).
//
// A sequence of equi-width histograms with identical bin width but shifted
// origins; the selectivity estimate is the average over the shifts. This
// smooths the discontinuities at bin boundaries of a single histogram
// (though jump points remain, in diminished form). The paper uses ten
// shifts in its final comparison (Fig. 12).
#ifndef SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_
#define SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_

#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/est/equi_width_histogram.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class AverageShiftedHistogram : public SelectivityEstimator {
 public:
  // `num_shifts` equi-width histograms with `num_bins` bins each, origins
  // offset by (i/num_shifts)·bin width.
  static StatusOr<AverageShiftedHistogram> Create(
      std::span<const double> sample, const Domain& domain, int num_bins,
      int num_shifts = 10);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  int num_shifts() const { return static_cast<int>(histograms_.size()); }
  int num_bins() const { return num_bins_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kAverageShifted;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<AverageShiftedHistogram> DeserializeState(
      ByteReader& reader);

 private:
  AverageShiftedHistogram(std::vector<EquiWidthHistogram> histograms,
                          int num_bins)
      : histograms_(std::move(histograms)), num_bins_(num_bins) {}

  std::vector<EquiWidthHistogram> histograms_;
  int num_bins_;
};

}  // namespace selest

#endif  // SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_
