#include "src/est/max_diff_histogram.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/est/estimator_snapshot.h"

namespace selest {

StatusOr<MaxDiffHistogram> MaxDiffHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_bins) {
  if (sample.empty()) {
    return InvalidArgumentError("max-diff histogram needs a sample");
  }
  if (num_bins < 1) {
    return InvalidArgumentError("max-diff histogram needs >= 1 bin");
  }
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());

  // Gaps between adjacent samples, ranked by size.
  struct Gap {
    double size;
    double midpoint;
  };
  std::vector<Gap> gaps;
  gaps.reserve(sorted.size());
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    const double gap = sorted[i + 1] - sorted[i];
    if (gap > 0.0) {
      gaps.push_back({gap, 0.5 * (sorted[i] + sorted[i + 1])});
    }
  }
  const size_t num_boundaries =
      std::min(static_cast<size_t>(num_bins - 1), gaps.size());
  std::partial_sort(gaps.begin(), gaps.begin() + num_boundaries, gaps.end(),
                    [](const Gap& a, const Gap& b) { return a.size > b.size; });

  std::vector<double> edges;
  edges.reserve(num_boundaries + 2);
  edges.push_back(domain.lo);
  for (size_t i = 0; i < num_boundaries; ++i) {
    edges.push_back(gaps[i].midpoint);
  }
  edges.push_back(domain.hi);
  std::sort(edges.begin(), edges.end());

  auto bins = BinnedDensity::FromSample(sorted, std::move(edges));
  if (!bins.ok()) return bins.status();
  return MaxDiffHistogram(std::move(bins).value());
}

double MaxDiffHistogram::EstimateSelectivity(double a, double b) const {
  return bins_.Selectivity(a, b);
}

std::string MaxDiffHistogram::name() const {
  return "max-diff(" + std::to_string(num_bins()) + ")";
}

Status MaxDiffHistogram::SerializeState(ByteWriter& writer) const {
  WriteBinnedDensity(writer, bins_);
  return Status::Ok();
}

StatusOr<MaxDiffHistogram> MaxDiffHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(BinnedDensity bins, ReadBinnedDensity(reader));
  return MaxDiffHistogram(std::move(bins));
}

}  // namespace selest
