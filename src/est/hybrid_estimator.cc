#include "src/est/hybrid_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/smoothing/normal_scale.h"
#include "src/util/simd.h"

namespace selest {

StatusOr<HybridEstimator> HybridEstimator::Create(
    std::span<const double> sample, const Domain& domain,
    const HybridEstimatorOptions& options) {
  if (sample.empty()) {
    return InvalidArgumentError("hybrid estimator needs a non-empty sample");
  }
  if (!std::all_of(sample.begin(), sample.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError("hybrid estimator samples must be finite");
  }
  if (options.min_bin_fraction < 0.0 || options.min_bin_fraction >= 1.0) {
    return InvalidArgumentError("min_bin_fraction must be in [0, 1)");
  }

  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());

  // 1. Pilot estimate and change-point detection.
  double pilot_bandwidth = options.pilot_bandwidth;
  if (pilot_bandwidth <= 0.0) {
    pilot_bandwidth = NormalScaleBandwidth(sorted, domain, options.kernel);
  }
  if (!(pilot_bandwidth > 0.0) || !std::isfinite(pilot_bandwidth)) {
    return InvalidArgumentError(
        "hybrid pilot bandwidth must be positive and finite");
  }
  std::vector<double> change_points = DetectChangePoints(
      ReflectedPilotDensity(sorted, pilot_bandwidth, domain, options.kernel),
      domain, options.change_points);

  // 2. Partition at the change points, then merge under-populated bins.
  std::vector<double> partition;
  partition.push_back(domain.lo);
  for (double cp : change_points) partition.push_back(cp);
  partition.push_back(domain.hi);

  // Every merge decision needs the sample count between two partition
  // edges. Searching the sample from scratch for each candidate made every
  // merge round O(bins · log n); instead, hoist the searches: compute each
  // edge's lower/upper-bound ranks once, keep the rank arrays in sync with
  // the partition as edges are erased, and a bin count becomes one
  // subtraction. The partitions produced are bit-identical.
  const size_t n_samples = sorted.size();
  std::vector<size_t> edge_lb(partition.size());
  std::vector<size_t> edge_ub(partition.size());
  for (size_t i = 0; i < partition.size(); ++i) {
    edge_lb[i] = BranchFreeLowerBound(sorted.data(), n_samples, partition[i]);
    edge_ub[i] = BranchFreeUpperBound(sorted.data(), n_samples, partition[i]);
  }
  // Samples in [partition[i], partition[j]].
  const auto count_between = [&edge_lb, &edge_ub](size_t i, size_t j) {
    return edge_ub[j] - edge_lb[i];
  };
  const auto erase_edge = [&partition, &edge_lb, &edge_ub](size_t i) {
    partition.erase(partition.begin() + static_cast<long>(i));
    edge_lb.erase(edge_lb.begin() + static_cast<long>(i));
    edge_ub.erase(edge_ub.begin() + static_cast<long>(i));
  };
  const size_t min_count = static_cast<size_t>(
      std::ceil(options.min_bin_fraction * static_cast<double>(sorted.size())));
  // Repeatedly drop the interior boundary of the lightest under-populated
  // bin (merging it with its smaller neighbor).
  bool merged = true;
  while (merged && partition.size() > 2) {
    merged = false;
    for (size_t i = 0; i + 1 < partition.size(); ++i) {
      const size_t bin_count = count_between(i, i + 1);
      if (bin_count >= std::max<size_t>(min_count, 2)) continue;
      // Merge with the lighter adjacent bin by erasing the shared edge.
      if (i == 0) {
        erase_edge(1);
      } else if (i + 2 == partition.size()) {
        erase_edge(partition.size() - 2);
      } else {
        const size_t left = count_between(i - 1, i);
        const size_t right = count_between(i + 1, i + 2);
        erase_edge(left <= right ? i : i + 1);
      }
      merged = true;
      break;
    }
  }

  // 3. One kernel estimator per bin, with a per-bin bandwidth.
  std::vector<Cell> cells;
  cells.reserve(partition.size() - 1);
  const double n = static_cast<double>(sorted.size());
  for (size_t i = 0; i + 1 < partition.size(); ++i) {
    const double lo = partition[i];
    const double hi = partition[i + 1];
    if (hi <= lo) continue;
    const size_t first = edge_lb[i];
    // Bin i covers [lo, hi); the last bin also takes the right endpoint.
    const size_t last =
        i + 2 == partition.size() ? edge_ub[i + 1] : edge_lb[i + 1];
    if (first == last) continue;
    const std::span<const double> bin_sample(sorted.data() + first,
                                             last - first);

    Domain bin_domain = domain;
    bin_domain.lo = lo;
    bin_domain.hi = hi;
    KernelEstimatorOptions kernel_options;
    kernel_options.kernel = options.kernel;
    kernel_options.boundary = options.boundary;
    kernel_options.bandwidth =
        NormalScaleBandwidth(bin_sample, bin_domain, options.kernel);
    // Keep the bandwidth inside the bin so the boundary machinery applies.
    kernel_options.bandwidth =
        std::min(kernel_options.bandwidth, 0.5 * bin_domain.width());
    if (kernel_options.bandwidth <= 0.0) {
      kernel_options.bandwidth = 0.5 * bin_domain.width();
    }
    auto estimator =
        KernelEstimator::Create(bin_sample, bin_domain, kernel_options);
    if (!estimator.ok()) return estimator.status();
    cells.emplace_back(bin_domain,
                       static_cast<double>(bin_sample.size()) / n,
                       std::move(estimator).value());
  }
  if (cells.empty()) {
    return InternalError("hybrid estimator produced no populated bins");
  }
  return HybridEstimator(std::move(partition), std::move(cells));
}

double HybridEstimator::EstimateSelectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  double total = 0.0;
  for (const Cell& cell : cells_) {
    const double lo = std::max(a, cell.bin_domain.lo);
    const double hi = std::min(b, cell.bin_domain.hi);
    if (lo >= hi) continue;
    // The per-bin estimator integrates to ~1 over its bin; scale by the
    // bin's share of the sample.
    const double mass = lo == cell.bin_domain.lo && hi == cell.bin_domain.hi
                            ? cell.full_range
                            : cell.estimator.EstimateSelectivity(lo, hi);
    total += cell.weight * mass;
  }
  return std::clamp(total, 0.0, 1.0);
}

size_t HybridEstimator::StorageBytes() const {
  size_t total = sizeof(double) * partition_.size();
  for (const Cell& cell : cells_) total += cell.estimator.StorageBytes();
  return total;
}

std::string HybridEstimator::name() const {
  return "hybrid(" + std::to_string(num_bins()) + " bins)";
}

Status HybridEstimator::SerializeState(ByteWriter& writer) const {
  writer.WriteDoubleVector(partition_);
  writer.WriteU32(static_cast<uint32_t>(cells_.size()));
  for (const Cell& cell : cells_) {
    WriteDomain(writer, cell.bin_domain);
    writer.WriteDouble(cell.weight);
    SELEST_RETURN_IF_ERROR(cell.estimator.SerializeState(writer));
  }
  return Status::Ok();
}

StatusOr<HybridEstimator> HybridEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(std::vector<double> partition,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_cells, reader.ReadU32());
  if (partition.size() < 2 ||
      !std::is_sorted(partition.begin(), partition.end())) {
    return InvalidArgumentError(
        "hybrid snapshot partition must be a sorted edge list");
  }
  // Zero-width or empty bins are skipped at build time, so there can be
  // fewer cells than partition intervals — never more.
  if (num_cells < 1 || num_cells >= partition.size()) {
    return InvalidArgumentError("hybrid snapshot cell count out of range");
  }
  std::vector<Cell> cells;
  cells.reserve(num_cells);
  for (uint32_t i = 0; i < num_cells; ++i) {
    SELEST_ASSIGN_OR_RETURN(const Domain bin_domain, ReadDomain(reader));
    SELEST_ASSIGN_OR_RETURN(const double weight, reader.ReadDouble());
    if (!std::isfinite(weight) || weight < 0.0 || weight > 1.0) {
      return InvalidArgumentError(
          "hybrid snapshot cell weight must be in [0, 1]");
    }
    SELEST_ASSIGN_OR_RETURN(KernelEstimator estimator,
                            KernelEstimator::DeserializeState(reader));
    cells.emplace_back(bin_domain, weight, std::move(estimator));
  }
  return HybridEstimator(std::move(partition), std::move(cells));
}

}  // namespace selest
