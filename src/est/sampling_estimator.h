// Pure sampling estimator (§2).
//
// The sample fraction falling inside the query range estimates the
// selectivity directly. Consistent, but converges only at rate O(n^−1/2) —
// the baseline every other estimator is measured against.
#ifndef SELEST_EST_SAMPLING_ESTIMATOR_H_
#define SELEST_EST_SAMPLING_ESTIMATOR_H_

#include <span>
#include <utility>
#include <vector>

#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

class SamplingEstimator : public SelectivityEstimator {
 public:
  // Fails on an empty sample.
  static StatusOr<SamplingEstimator> Create(std::span<const double> sample);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override { return "sampling"; }

  size_t sample_size() const { return sorted_.size(); }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kSampling;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<SamplingEstimator> DeserializeState(ByteReader& reader);

  // Exact incremental maintenance: the state is the sorted sample itself,
  // so merging another instance (or folding raw rows) in sorted order
  // reproduces Build(A ∪ B) bit for bit.
  bool SupportsMerge() const override { return true; }
  Status MergeFrom(const SelectivityEstimator& other) override;
  Status FoldRows(std::span<const double> rows) override;

 private:
  explicit SamplingEstimator(std::vector<double> sorted)
      : sorted_(std::move(sorted)) {}

  std::vector<double> sorted_;
};

}  // namespace selest

#endif  // SELEST_EST_SAMPLING_ESTIMATOR_H_
