#include "src/density/histogram_density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/util/simd.h"

namespace selest {

Status BinnedDensity::Validate(std::span<const double> edges,
                               std::span<const double> counts,
                               double total_count) {
  if (edges.size() < 2) {
    return InvalidArgumentError("histogram needs at least two edges");
  }
  if (counts.size() + 1 != edges.size()) {
    return InvalidArgumentError("counts must have edges.size()-1 entries");
  }
  if (!(total_count > 0.0) || !std::isfinite(total_count)) {
    return InvalidArgumentError("total_count must be positive and finite");
  }
  // Written so a NaN fails every test. A finite span keeps every bin width
  // and every in-range offset x − c_i finite.
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    if (!(edges[i] <= edges[i + 1])) {
      return InvalidArgumentError("edges must be non-decreasing");
    }
  }
  if (!std::isfinite(edges.back() - edges.front())) {
    return InvalidArgumentError("edges must be finite with a finite span");
  }
  double mass = 0.0;
  for (double c : counts) {
    if (!(c >= 0.0)) return InvalidArgumentError("counts must be non-negative");
    mass += c;
  }
  if (!std::isfinite(mass)) {
    return InvalidArgumentError("counts must have a finite sum");
  }
  return Status::Ok();
}

StatusOr<BinnedDensity> BinnedDensity::Create(std::vector<double> edges,
                                              std::vector<double> counts,
                                              double total_count) {
  SELEST_RETURN_IF_ERROR(Validate(edges, counts, total_count));
  return BinnedDensity(std::move(edges), std::move(counts), total_count);
}

BinnedDensity::BinnedDensity(std::vector<double> edges,
                             std::vector<double> counts, double total_count)
    : edges_(std::move(edges)),
      counts_(std::move(counts)),
      cumulative_(edges_.size(), 0.0),
      directory_(edges_),
      total_count_(total_count) {
  std::partial_sum(counts_.begin(), counts_.end(), cumulative_.begin() + 1);
}

namespace {

// Bin i covers (edges[i], edges[i+1]]; the first bin also includes its
// left edge so the full edge range is covered. Out-of-range values clamp
// into the first/last bin. Shared by FromSample and FoldedWith so batch
// builds and incremental folds bucket identically.
size_t BucketIndex(std::span<const double> edges, size_t num_bins, double v) {
  const size_t pos = BranchFreeLowerBound(edges.data(), edges.size(), v);
  const size_t bin = pos == 0 ? 0 : pos - 1;
  return std::min(bin, num_bins - 1);
}

}  // namespace

StatusOr<BinnedDensity> BinnedDensity::FromSample(
    std::span<const double> sample, std::vector<double> edges) {
  if (sample.empty()) {
    return InvalidArgumentError("histogram needs a non-empty sample");
  }
  if (edges.size() < 2) {
    return InvalidArgumentError("histogram needs at least two edges");
  }
  std::vector<double> counts(edges.size() - 1, 0.0);
  for (double v : sample) {
    counts[BucketIndex(edges, counts.size(), v)] += 1.0;
  }
  const double total = static_cast<double>(sample.size());
  return Create(std::move(edges), std::move(counts), total);
}

double BinnedDensity::Density(double x) const {
  if (x < edges_.front() || x > edges_.back()) return 0.0;
  auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  size_t bin = it == edges_.begin()
                   ? 0
                   : static_cast<size_t>(it - edges_.begin()) - 1;
  bin = std::min(bin, counts_.size() - 1);
  const double width = edges_[bin + 1] - edges_[bin];
  if (width <= 0.0) {
    return counts_[bin] > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return counts_[bin] / (total_count_ * width);
}

double BinnedDensity::CumulativeAt(size_t pos, double x) const {
  if (pos == 0) return 0.0;
  if (pos == edges_.size()) return cumulative_.back();
  // edges_[i] <= x <= edges_[i + 1] with at least one side strict, so the
  // bin has positive width. The divide form makes x == edges_[i + 1] land
  // exactly on cumulative_[i + 1] (w/w == 1.0).
  const size_t i = pos - 1;
  return cumulative_[i] +
         counts_[i] * ((x - edges_[i]) / (edges_[i + 1] - edges_[i]));
}

double BinnedDensity::Selectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  const double at_or_below_b =
      CumulativeAt(directory_.UpperBound(edges_.data(), b), b);
  const double below_a =
      CumulativeAt(directory_.LowerBound(edges_.data(), a), a);
  return std::clamp((at_or_below_b - below_a) / total_count_, 0.0, 1.0);
}

size_t BinnedDensity::StorageBytes() const {
  return sizeof(double) * (edges_.size() + counts_.size());
}

StatusOr<BinnedDensity> BinnedDensity::MergedWith(
    const BinnedDensity& other) const {
  if (edges_ != other.edges_) {
    return FailedPreconditionError(
        "histogram merge requires identical bin edges");
  }
  std::vector<double> counts(counts_);
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts_[i];
  return BinnedDensity(edges_, std::move(counts),
                       total_count_ + other.total_count_);
}

BinnedDensity BinnedDensity::FoldedWith(std::span<const double> values) const {
  std::vector<double> counts(counts_);
  for (double v : values) {
    counts[BucketIndex(edges_, counts.size(), v)] += 1.0;
  }
  return BinnedDensity(edges_, std::move(counts),
                       total_count_ + static_cast<double>(values.size()));
}

double BinnedDensity::MassBelow(double x) const {
  return CumulativeAt(directory_.UpperBound(edges_.data(), x), x);
}

}  // namespace selest
