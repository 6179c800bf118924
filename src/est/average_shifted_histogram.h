// Average shifted histogram (ASH) estimator (§3.1).
//
// A sequence of equi-width histograms with identical bin width but shifted
// origins; the selectivity estimate is the average over the shifts. This
// smooths the discontinuities at bin boundaries of a single histogram
// (though jump points remain, in diminished form). The paper uses ten
// shifts in its final comparison (Fig. 12).
//
// The K shifted cumulative masses are piecewise linear, so their average is
// one piecewise-linear cumulative mass over the union of their edges. The
// estimator derives it once, when built and when loaded from a snapshot,
// as one BinnedDensity, and answers each query with that table's two
// lookups instead of K. Union sub-bin j, inside bin i of shift k, holds
//
//   count_j = (1/K) Σ_k n_{k,i}·(w_j/h_{k,i}),
//
// w_j the sub-bin's width and h_{k,i} the bin's; an atom (zero-width bin)
// of any shift stays an atom at its position, and the total is the sample
// size n. One merge of the K sorted edge runs finds the union, carrying
// the mass so far and Σ_k n_{k,i}/h_{k,i} as running sums that are
// recomputed exactly from the shifts every K sub-bins. Answers equal the
// average of the K lookups up to rounding (est_ash_test holds them within
// 1e-14); with one shift the table is that shift's own. The estimator
// keeps each shift's edges, counts, total and bin width only for its
// snapshot, whose bytes are the K equi-width histograms'.
#ifndef SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_
#define SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_

#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
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

  int num_shifts() const { return static_cast<int>(shifts_.size()); }
  int num_bins() const { return num_bins_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kAverageShifted;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<AverageShiftedHistogram> DeserializeState(
      ByteReader& reader);

 private:
  // One shifted equi-width histogram, as its snapshot stores it.
  struct Shift {
    std::vector<double> edges;
    std::vector<double> counts;
    double total_count;
    double bin_width;
  };

  AverageShiftedHistogram(std::vector<Shift> shifts, int num_bins,
                          BinnedDensity average)
      : shifts_(std::move(shifts)),
        num_bins_(num_bins),
        average_(std::move(average)) {}

  // Derives the average over the union of the shifts' edges; Create and
  // DeserializeState both construct through it. Fails when the shifts do
  // not share one sample size.
  static StatusOr<AverageShiftedHistogram> FromShifts(
      std::vector<Shift> shifts, int num_bins);

  std::vector<Shift> shifts_;
  int num_bins_;
  BinnedDensity average_;  // answers every query
};

}  // namespace selest

#endif  // SELEST_EST_AVERAGE_SHIFTED_HISTOGRAM_H_
