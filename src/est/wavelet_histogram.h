// Wavelet-based histogram (Matias, Vitter & Wang — the paper's
// reference [4]).
//
// The sample's frequency vector over 2^k fine cells is Haar-transformed;
// only the `num_coefficients` largest-magnitude coefficients are kept (the
// synopsis a system would store) and the density is reconstructed from
// them. Thresholding in the wavelet domain adapts resolution locally:
// smooth regions compress into few coefficients while sharp features keep
// theirs — a different trade-off from any fixed-bucket histogram.
#ifndef SELEST_EST_WAVELET_HISTOGRAM_H_
#define SELEST_EST_WAVELET_HISTOGRAM_H_

#include <span>

#include "src/data/domain.h"
#include "src/density/histogram_density.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class WaveletHistogram : public SelectivityEstimator {
 public:
  // Keeps `num_coefficients` Haar coefficients (>= 1; the overall-average
  // coefficient is always among them). `base_bins` must be a power of two.
  static StatusOr<WaveletHistogram> Create(std::span<const double> sample,
                                           const Domain& domain,
                                           int num_coefficients,
                                           int base_bins = 512);

  double EstimateSelectivity(double a, double b) const override;
  // The synopsis: (index, value) per retained coefficient.
  size_t StorageBytes() const override;
  std::string name() const override;

  int num_coefficients() const { return num_coefficients_; }
  const BinnedDensity& reconstruction() const { return bins_; }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kWavelet;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<WaveletHistogram> DeserializeState(ByteReader& reader);

 private:
  WaveletHistogram(BinnedDensity bins, int num_coefficients)
      : bins_(std::move(bins)), num_coefficients_(num_coefficients) {}

  BinnedDensity bins_;  // density reconstructed from the kept coefficients
  int num_coefficients_;
};

// In-place orthonormal Haar transform of a power-of-two-length vector and
// its inverse. Exposed for tests.
void HaarTransform(std::span<double> values);
void InverseHaarTransform(std::span<double> values);

}  // namespace selest

#endif  // SELEST_EST_WAVELET_HISTOGRAM_H_
