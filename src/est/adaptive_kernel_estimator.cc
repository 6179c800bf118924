#include "src/est/adaptive_kernel_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "src/density/kde.h"
#include "src/est/estimator_snapshot.h"
#include "src/smoothing/normal_scale.h"

namespace selest {

StatusOr<AdaptiveKernelEstimator> AdaptiveKernelEstimator::Create(
    std::span<const double> sample, const Domain& domain,
    const AdaptiveKernelOptions& options) {
  if (sample.empty()) {
    return InvalidArgumentError("adaptive kernel estimator needs a sample");
  }
  if (!std::all_of(sample.begin(), sample.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError(
        "adaptive kernel estimator samples must be finite");
  }
  if (options.sensitivity < 0.0 || options.sensitivity > 1.0) {
    return InvalidArgumentError("sensitivity must be in [0, 1]");
  }
  if (options.max_widening < 1.0) {
    return InvalidArgumentError("max_widening must be >= 1");
  }
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());

  double h0 = options.base_bandwidth;
  if (h0 <= 0.0) {
    h0 = NormalScaleBandwidth(sorted, domain, options.kernel);
  }
  if (!(h0 > 0.0) || !std::isfinite(h0)) {
    return InvalidArgumentError("adaptive base bandwidth must be positive");
  }

  // Pilot density at the samples (reflection keeps boundary pilots sane).
  const std::function<double(double)> pilot =
      ReflectedPilotDensity(sorted, h0, domain, options.kernel);
  std::vector<double> pilot_density(sorted.size());
  double log_sum = 0.0;
  constexpr double kFloor = 1e-300;
  for (size_t i = 0; i < sorted.size(); ++i) {
    pilot_density[i] = std::max(pilot(sorted[i]), kFloor);
    log_sum += std::log(pilot_density[i]);
  }
  const double geometric_mean =
      std::exp(log_sum / static_cast<double>(sorted.size()));

  std::vector<double> bandwidths(sorted.size());
  double max_bandwidth = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double factor = std::min(
        std::pow(pilot_density[i] / geometric_mean, -options.sensitivity),
        options.max_widening);
    bandwidths[i] = h0 * factor;
    max_bandwidth = std::max(max_bandwidth, bandwidths[i]);
  }
  return AdaptiveKernelEstimator(std::move(sorted), std::move(bandwidths),
                                 max_bandwidth, h0, domain, options.kernel);
}

AdaptiveKernelEstimator::AdaptiveKernelEstimator(
    std::vector<double> sorted, std::vector<double> bandwidths,
    double max_bandwidth, double base_bandwidth, Domain domain, Kernel kernel)
    : sorted_(std::move(sorted)),
      bandwidths_(std::move(bandwidths)),
      max_bandwidth_(max_bandwidth),
      base_bandwidth_(base_bandwidth),
      domain_(domain),
      kernel_(kernel) {
  if (kernel_.type() == KernelType::kEpanechnikov) {
    cdf_table_ = EpanechnikovCdfTable(sorted_, bandwidths_);
  }
}

double AdaptiveKernelEstimator::EstimateSelectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  a = domain_.Clamp(a);
  b = domain_.Clamp(b);
  if (a >= b) return 0.0;
  const double n = static_cast<double>(sorted_.size());
  if (kernel_.type() == KernelType::kEpanechnikov) {
    return std::clamp(
        (cdf_table_.MassBelow(b) - cdf_table_.MassBelow(a)) / n, 0.0, 1.0);
  }
  const double radius = kernel_.support_radius() * max_bandwidth_;
  const auto first =
      std::lower_bound(sorted_.begin(), sorted_.end(), a - radius);
  const auto last =
      std::upper_bound(sorted_.begin(), sorted_.end(), b + radius);
  double sum = 0.0;
  for (auto it = first; it != last; ++it) {
    const auto i = static_cast<size_t>(it - sorted_.begin());
    const double h = bandwidths_[i];
    sum += kernel_.Cdf((b - *it) / h) - kernel_.Cdf((a - *it) / h);
  }
  return std::clamp(sum / n, 0.0, 1.0);
}

size_t AdaptiveKernelEstimator::StorageBytes() const {
  // Sample plus per-sample bandwidths.
  return sizeof(double) * (2 * sorted_.size() + 1);
}

std::string AdaptiveKernelEstimator::name() const {
  return "adaptive-kernel(" + kernel_.name() + ")";
}

Status AdaptiveKernelEstimator::SerializeState(ByteWriter& writer) const {
  writer.WriteDoubleVector(sorted_);
  writer.WriteDoubleVector(bandwidths_);
  writer.WriteDouble(base_bandwidth_);
  WriteDomain(writer, domain_);
  WriteKernel(writer, kernel_);
  return Status::Ok();
}

StatusOr<AdaptiveKernelEstimator> AdaptiveKernelEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(std::vector<double> sorted,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(std::vector<double> bandwidths,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(const double base_bandwidth, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  SELEST_ASSIGN_OR_RETURN(const Kernel kernel, ReadKernel(reader));
  if (sorted.empty() || !std::is_sorted(sorted.begin(), sorted.end()) ||
      !std::all_of(sorted.begin(), sorted.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError(
        "adaptive kernel snapshot samples must be non-empty, finite and "
        "sorted");
  }
  if (bandwidths.size() != sorted.size()) {
    return InvalidArgumentError(
        "adaptive kernel snapshot bandwidths do not parallel the samples");
  }
  if (!(base_bandwidth > 0.0) || !std::isfinite(base_bandwidth)) {
    return InvalidArgumentError(
        "adaptive kernel snapshot base bandwidth must be positive");
  }
  // max_bandwidth_ is derived state; recomputing it keeps the snapshot free
  // of a redundant field that could drift out of sync.
  double max_bandwidth = 0.0;
  for (double h : bandwidths) {
    if (!(h > 0.0) || !std::isfinite(h)) {
      return InvalidArgumentError(
          "adaptive kernel snapshot bandwidths must be positive");
    }
    max_bandwidth = std::max(max_bandwidth, h);
  }
  return AdaptiveKernelEstimator(std::move(sorted), std::move(bandwidths),
                                 max_bandwidth, base_bandwidth, domain,
                                 kernel);
}

}  // namespace selest
