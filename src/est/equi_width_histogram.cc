#include "src/est/equi_width_histogram.h"

#include <cmath>
#include <vector>

#include "src/est/estimator_snapshot.h"

namespace selest {

StatusOr<EquiWidthHistogram> EquiWidthHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_bins,
    double shift) {
  if (sample.empty()) {
    return InvalidArgumentError("equi-width histogram needs a sample");
  }
  if (num_bins < 1) {
    return InvalidArgumentError("equi-width histogram needs >= 1 bin");
  }
  const double width = domain.width() / num_bins;
  if (shift < 0.0 || shift >= width) {
    return InvalidArgumentError("shift must be in [0, bin width)");
  }
  std::vector<double> edges;
  edges.reserve(static_cast<size_t>(num_bins) + 2);
  // A nonzero shift adds a leading partial bin so the domain stays covered.
  if (shift > 0.0) edges.push_back(domain.lo);
  for (int i = 0; i <= num_bins; ++i) {
    edges.push_back(std::min(domain.lo + shift + i * width, domain.hi));
  }
  // The trailing edge may have been clamped; ensure strict domain coverage.
  if (edges.back() < domain.hi) edges.push_back(domain.hi);
  auto bins = BinnedDensity::FromSample(sample, std::move(edges));
  if (!bins.ok()) return bins.status();
  return EquiWidthHistogram(std::move(bins).value(), width);
}

double EquiWidthHistogram::EstimateSelectivity(double a, double b) const {
  return bins_.Selectivity(a, b);
}

std::string EquiWidthHistogram::name() const {
  return "equi-width(" + std::to_string(num_bins()) + ")";
}

Status EquiWidthHistogram::MergeFrom(const SelectivityEstimator& other) {
  const auto* peer = dynamic_cast<const EquiWidthHistogram*>(&other);
  if (peer == nullptr) {
    return FailedPreconditionError("cannot merge " + other.name() +
                                   " into an equi-width histogram");
  }
  auto merged = bins_.MergedWith(peer->bins_);
  if (!merged.ok()) return merged.status();
  bins_ = std::move(merged).value();
  return Status::Ok();
}

Status EquiWidthHistogram::FoldRows(std::span<const double> rows) {
  bins_ = bins_.FoldedWith(rows);
  return Status::Ok();
}

Status EquiWidthHistogram::SerializeState(ByteWriter& writer) const {
  WriteBinnedDensity(writer, bins_);
  writer.WriteDouble(bin_width_);
  return Status::Ok();
}

StatusOr<EquiWidthHistogram> EquiWidthHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(BinnedDensity bins, ReadBinnedDensity(reader));
  SELEST_ASSIGN_OR_RETURN(const double bin_width, reader.ReadDouble());
  if (!(bin_width > 0.0) || !std::isfinite(bin_width)) {
    return InvalidArgumentError(
        "equi-width snapshot bin width must be positive");
  }
  return EquiWidthHistogram(std::move(bins), bin_width);
}

}  // namespace selest
