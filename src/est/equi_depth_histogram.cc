#include "src/est/equi_depth_histogram.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "src/est/estimator_snapshot.h"

namespace selest {

StatusOr<EquiDepthHistogram> EquiDepthHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_bins) {
  if (sample.empty()) {
    return InvalidArgumentError("equi-depth histogram needs a sample");
  }
  if (num_bins < 1) {
    return InvalidArgumentError("equi-depth histogram needs >= 1 bin");
  }
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();

  // Interior edges at the i/k sample quantiles; outer edges at the domain
  // boundaries so the estimator covers the whole attribute range. Counts
  // come from the rank partition — exactly n/k per bin — rather than from
  // re-bucketing: under heavy duplication several quantile edges coincide
  // and the duplicated value's mass must stay distributed over the
  // resulting zero-width (atom) bins, which re-bucketing into (c, c']
  // intervals would collapse into the leftmost bin.
  std::vector<double> edges;
  std::vector<double> counts;
  edges.reserve(static_cast<size_t>(num_bins) + 1);
  counts.reserve(static_cast<size_t>(num_bins));
  edges.push_back(domain.lo);
  size_t previous_rank = 0;
  for (int i = 1; i <= num_bins; ++i) {
    const size_t rank =
        i == num_bins
            ? n
            : static_cast<size_t>(i) * n / static_cast<size_t>(num_bins);
    edges.push_back(i == num_bins ? domain.hi : sorted[std::min(rank, n - 1)]);
    counts.push_back(static_cast<double>(rank - previous_rank));
    previous_rank = rank;
  }
  // Duplicated data can make a quantile edge exceed a later one only via
  // the domain clamp; enforce monotonicity for robustness.
  for (size_t i = 1; i < edges.size(); ++i) {
    edges[i] = std::max(edges[i], edges[i - 1]);
  }
  auto bins = BinnedDensity::Create(std::move(edges), std::move(counts),
                                    static_cast<double>(n));
  if (!bins.ok()) return bins.status();
  return EquiDepthHistogram(std::move(bins).value());
}

double EquiDepthHistogram::EstimateSelectivity(double a, double b) const {
  return bins_.Selectivity(a, b);
}

std::string EquiDepthHistogram::name() const {
  return "equi-depth(" + std::to_string(num_bins()) + ")";
}

Status EquiDepthHistogram::MergeFrom(const SelectivityEstimator& other) {
  const auto* peer = dynamic_cast<const EquiDepthHistogram*>(&other);
  if (peer == nullptr) {
    return FailedPreconditionError("cannot merge " + other.name() +
                                   " into an equi-depth histogram");
  }
  const std::vector<double>& a_edges = bins_.edges();
  const std::vector<double>& b_edges = peer->bins_.edges();
  if (a_edges.front() != b_edges.front() || a_edges.back() != b_edges.back()) {
    return FailedPreconditionError(
        "equi-depth merge requires histograms over the same domain");
  }

  // Union edge grid with the combined cumulative mass at each edge: the
  // merged CDF is exact at union edges and linearly interpolated between
  // them, which is where the bounded drift comes from.
  std::vector<double> grid;
  grid.reserve(a_edges.size() + b_edges.size());
  std::merge(a_edges.begin(), a_edges.end(), b_edges.begin(), b_edges.end(),
             std::back_inserter(grid));
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  std::vector<double> cumulative(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    cumulative[i] =
        bins_.MassBelow(grid[i]) + peer->bins_.MassBelow(grid[i]);
  }
  const double total = bins_.total_count() + peer->bins_.total_count();

  // Re-place this histogram's bin count at the combined quantiles.
  const size_t k = bins_.num_bins();
  std::vector<double> edges;
  std::vector<double> counts(k, total / static_cast<double>(k));
  edges.reserve(k + 1);
  edges.push_back(grid.front());
  size_t segment = 1;
  for (size_t j = 1; j < k; ++j) {
    const double target =
        static_cast<double>(j) * total / static_cast<double>(k);
    while (segment + 1 < grid.size() && cumulative[segment] < target) {
      ++segment;
    }
    const double mass_step = cumulative[segment] - cumulative[segment - 1];
    const double position =
        mass_step > 0.0
            ? grid[segment - 1] + (target - cumulative[segment - 1]) /
                                      mass_step *
                                      (grid[segment] - grid[segment - 1])
            : grid[segment];
    edges.push_back(std::max(position, edges.back()));
  }
  edges.push_back(std::max(grid.back(), edges.back()));

  auto merged = BinnedDensity::Create(std::move(edges), std::move(counts),
                                      total);
  if (!merged.ok()) return merged.status();
  bins_ = std::move(merged).value();
  return Status::Ok();
}

Status EquiDepthHistogram::FoldRows(std::span<const double> rows) {
  if (rows.empty()) return Status::Ok();
  Domain domain;
  domain.lo = bins_.edges().front();
  domain.hi = bins_.edges().back();
  auto delta = Create(rows, domain, num_bins());
  if (!delta.ok()) return delta.status();
  return MergeFrom(delta.value());
}

Status EquiDepthHistogram::SerializeState(ByteWriter& writer) const {
  WriteBinnedDensity(writer, bins_);
  return Status::Ok();
}

StatusOr<EquiDepthHistogram> EquiDepthHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(BinnedDensity bins, ReadBinnedDensity(reader));
  return EquiDepthHistogram(std::move(bins));
}

}  // namespace selest
