#include "src/est/v_optimal_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/est/estimator_snapshot.h"

namespace selest {

StatusOr<VOptimalHistogram> VOptimalHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_buckets,
    int base_bins) {
  if (sample.empty()) {
    return InvalidArgumentError("v-optimal histogram needs a sample");
  }
  if (num_buckets < 1) {
    return InvalidArgumentError("v-optimal histogram needs >= 1 bucket");
  }
  if (base_bins < num_buckets) {
    return InvalidArgumentError("base_bins must be >= num_buckets");
  }

  // 1. Pre-bin the sample onto fine equi-width cells.
  const auto cells = static_cast<size_t>(base_bins);
  std::vector<double> frequency(cells, 0.0);
  const double cell_width = domain.width() / base_bins;
  for (double v : sample) {
    auto cell = static_cast<long>((domain.Clamp(v) - domain.lo) / cell_width);
    cell = std::clamp<long>(cell, 0, base_bins - 1);
    frequency[static_cast<size_t>(cell)] += 1.0;
  }

  // 2. Prefix sums for O(1) bucket SSE:
  //    sse(i, j) = Σ f² − (Σ f)² / (j − i) over cells [i, j).
  std::vector<double> prefix(cells + 1, 0.0);
  std::vector<double> prefix_sq(cells + 1, 0.0);
  for (size_t c = 0; c < cells; ++c) {
    prefix[c + 1] = prefix[c] + frequency[c];
    prefix_sq[c + 1] = prefix_sq[c] + frequency[c] * frequency[c];
  }
  const auto bucket_sse = [&](size_t i, size_t j) {
    const double sum = prefix[j] - prefix[i];
    const double sum_sq = prefix_sq[j] - prefix_sq[i];
    return sum_sq - sum * sum / static_cast<double>(j - i);
  };

  // 3. DP over (cells, buckets). best[j] after round k = minimal SSE of
  // covering cells [0, j) with k buckets.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto buckets = static_cast<size_t>(num_buckets);
  std::vector<double> best(cells + 1, kInf);
  std::vector<std::vector<uint32_t>> split(
      buckets + 1, std::vector<uint32_t>(cells + 1, 0));
  best[0] = 0.0;
  for (size_t j = 1; j <= cells; ++j) best[j] = bucket_sse(0, j);
  for (size_t k = 2; k <= buckets; ++k) {
    std::vector<double> next(cells + 1, kInf);
    for (size_t j = k; j <= cells; ++j) {
      for (size_t i = k - 1; i < j; ++i) {
        if (best[i] == kInf) continue;
        const double candidate = best[i] + bucket_sse(i, j);
        if (candidate < next[j]) {
          next[j] = candidate;
          split[k][j] = static_cast<uint32_t>(i);
        }
      }
    }
    best = std::move(next);
  }

  // 4. Recover the partition (cell boundaries → bucket edges).
  std::vector<size_t> boundaries;  // cell indices, descending
  size_t j = cells;
  for (size_t k = buckets; k >= 2; --k) {
    const size_t i = split[k][j];
    boundaries.push_back(i);
    j = i;
  }
  std::reverse(boundaries.begin(), boundaries.end());

  std::vector<double> edges;
  std::vector<double> counts;
  edges.reserve(buckets + 1);
  counts.reserve(buckets);
  edges.push_back(domain.lo);
  size_t previous = 0;
  for (size_t boundary : boundaries) {
    edges.push_back(domain.lo + static_cast<double>(boundary) * cell_width);
    counts.push_back(prefix[boundary] - prefix[previous]);
    previous = boundary;
  }
  edges.push_back(domain.hi);
  counts.push_back(prefix[cells] - prefix[previous]);

  auto bins = BinnedDensity::Create(std::move(edges), std::move(counts),
                                    static_cast<double>(sample.size()));
  if (!bins.ok()) return bins.status();
  return VOptimalHistogram(std::move(bins).value(), best[cells]);
}

double VOptimalHistogram::EstimateSelectivity(double a, double b) const {
  return bins_.Selectivity(a, b);
}

std::string VOptimalHistogram::name() const {
  return "v-optimal(" + std::to_string(num_buckets()) + ")";
}

Status VOptimalHistogram::SerializeState(ByteWriter& writer) const {
  WriteBinnedDensity(writer, bins_);
  writer.WriteDouble(sse_);
  return Status::Ok();
}

StatusOr<VOptimalHistogram> VOptimalHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(BinnedDensity bins, ReadBinnedDensity(reader));
  SELEST_ASSIGN_OR_RETURN(const double sse, reader.ReadDouble());
  if (!std::isfinite(sse) || sse < 0.0) {
    return InvalidArgumentError("v-optimal snapshot SSE must be >= 0");
  }
  return VOptimalHistogram(std::move(bins), sse);
}

}  // namespace selest
