#include "src/est/sampling_estimator.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/util/simd.h"

namespace selest {

StatusOr<SamplingEstimator> SamplingEstimator::Create(
    std::span<const double> sample) {
  if (sample.empty()) {
    return InvalidArgumentError("sampling estimator needs a non-empty sample");
  }
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return SamplingEstimator(std::move(sorted));
}

double SamplingEstimator::EstimateSelectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  // Branch-free searches: same indices as std::lower_bound/std::upper_bound.
  const size_t lo = BranchFreeLowerBound(sorted_.data(), sorted_.size(), a);
  const size_t hi = BranchFreeUpperBound(sorted_.data(), sorted_.size(), b);
  return static_cast<double>(hi - lo) / static_cast<double>(sorted_.size());
}

size_t SamplingEstimator::StorageBytes() const {
  return sizeof(double) * sorted_.size();
}

Status SamplingEstimator::MergeFrom(const SelectivityEstimator& other) {
  const auto* peer = dynamic_cast<const SamplingEstimator*>(&other);
  if (peer == nullptr) {
    return FailedPreconditionError("cannot merge " + other.name() +
                                   " into a sampling estimator");
  }
  std::vector<double> merged;
  merged.reserve(sorted_.size() + peer->sorted_.size());
  std::merge(sorted_.begin(), sorted_.end(), peer->sorted_.begin(),
             peer->sorted_.end(), std::back_inserter(merged));
  sorted_ = std::move(merged);
  return Status::Ok();
}

Status SamplingEstimator::FoldRows(std::span<const double> rows) {
  if (rows.empty()) return Status::Ok();
  const size_t old_size = sorted_.size();
  sorted_.insert(sorted_.end(), rows.begin(), rows.end());
  std::sort(sorted_.begin() + static_cast<ptrdiff_t>(old_size),
            sorted_.end());
  std::inplace_merge(sorted_.begin(),
                     sorted_.begin() + static_cast<ptrdiff_t>(old_size),
                     sorted_.end());
  return Status::Ok();
}

Status SamplingEstimator::SerializeState(ByteWriter& writer) const {
  writer.WriteDoubleVector(sorted_);
  return Status::Ok();
}

StatusOr<SamplingEstimator> SamplingEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(std::vector<double> sorted,
                          reader.ReadDoubleVector());
  if (sorted.empty()) {
    return InvalidArgumentError("sampling snapshot has an empty sample");
  }
  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    return InvalidArgumentError("sampling snapshot sample is not sorted");
  }
  return SamplingEstimator(std::move(sorted));
}

}  // namespace selest
