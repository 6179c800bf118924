#include "src/est/kernel_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/est/estimator_snapshot.h"
#include "src/util/check.h"
#include "src/util/numeric.h"
#include "src/util/simd.h"

namespace selest {

StatusOr<KernelEstimator> KernelEstimator::Create(
    std::span<const double> sample, const Domain& domain,
    const KernelEstimatorOptions& options) {
  if (sample.empty()) {
    return InvalidArgumentError("kernel estimator needs a non-empty sample");
  }
  if (!std::all_of(sample.begin(), sample.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError("kernel estimator samples must be finite");
  }
  if (!(options.bandwidth > 0.0) || !std::isfinite(options.bandwidth)) {
    return InvalidArgumentError("kernel bandwidth must be positive");
  }
  if (options.quadrature_intervals < 2) {
    return InvalidArgumentError("quadrature_intervals must be >= 2");
  }
  if (options.boundary == BoundaryPolicy::kBoundaryKernel &&
      options.kernel.type() != KernelType::kEpanechnikov) {
    return InvalidArgumentError(
        "boundary kernels extend the Epanechnikov kernel only");
  }

  KernelEstimator estimator(
      EffectiveSample(sample, domain, options.boundary,
                      options.kernel.support_radius() * options.bandwidth),
      sample.size(), domain, options);
  if (options.boundary == BoundaryPolicy::kBoundaryKernel) {
    const double h = options.bandwidth;
    const int nodes = options.quadrature_intervals * 16;
    const double left_end = std::min(domain.lo + h, domain.hi);
    estimator.left_strip_ = estimator.BuildStripTable(domain.lo, left_end,
                                                      nodes);
    estimator.right_strip_ = estimator.BuildStripTable(
        std::max(domain.hi - h, left_end), domain.hi, nodes);
  }
  return estimator;
}

KernelEstimator::KernelEstimator(std::vector<double> sorted,
                                 size_t original_count, const Domain& domain,
                                 const KernelEstimatorOptions& options)
    : sorted_(std::move(sorted)),
      original_count_(original_count),
      domain_(domain),
      options_(options) {
  if (options_.kernel.type() == KernelType::kEpanechnikov) {
    cdf_table_ = EpanechnikovCdfTable(sorted_, options_.bandwidth);
  }
}

double KernelEstimator::BoundaryKernelDensity(double x) const {
  const double h = options_.bandwidth;
  // No sample lies within a bandwidth of x, so none is in any support
  // below: the density is exactly 0.
  if (x + h < sorted_.front() || x - h > sorted_.back()) return 0.0;
  const double n = static_cast<double>(original_count_);
  const bool near_left = x - domain_.lo < h;
  if (!near_left && !(domain_.hi - x < h)) {
    return cdf_table_.Derivative(x) / n;
  }
  // With u = (x − X)/h, the boundary kernel sums 3 + 3q² − 6u² =
  // 3(q² − 1) + 6(1 − u²) over its support, [x − qh, x + h] on the left
  // and [x − h, x + qh] on the right, and G′(x) = (3/4h) Σ (1 − u²) over
  // [x − h, x + h]. The samples between the two supports sit at or beyond
  // the domain edge (x − qh rounds to about lo); they leave the sum
  // explicitly, exactly as the boundary kernel's searches exclude them.
  const double* data = sorted_.data();
  const size_t size = sorted_.size();
  double q;
  size_t first;  // the boundary kernel's support is samples [first, last)
  size_t last;
  double cut = 0.0;  // Σ (1 − u²) over G′'s support outside it
  const auto cut_sample = [&](size_t i) {
    const double u = (x - data[i]) / h;
    cut += (1.0 - u) * (1.0 + u);
  };
  if (near_left) {
    q = std::clamp((x - domain_.lo) / h, 0.0, 1.0);
    first = BranchFreeLowerBound(data, size, x - q * h);
    last = BranchFreeUpperBound(data, size, x + h);
    for (size_t i = first; i > 0 && data[i - 1] >= x - h; --i) {
      cut_sample(i - 1);
    }
  } else {
    q = std::clamp((domain_.hi - x) / h, 0.0, 1.0);
    first = BranchFreeLowerBound(data, size, x - h);
    last = BranchFreeUpperBound(data, size, x + q * h);
    for (size_t i = last; i < size && data[i] <= x + h; ++i) cut_sample(i);
  }
  const double one_plus_q = 1.0 + q;
  return (3.0 * (q * q - 1.0) * static_cast<double>(last - first) +
          8.0 * h * cdf_table_.Derivative(x) - 6.0 * cut) /
         (one_plus_q * one_plus_q * one_plus_q * n * h);
}

KernelEstimator::StripTable KernelEstimator::BuildStripTable(double lo,
                                                             double hi,
                                                             int nodes) const {
  StripTable table;
  table.lo = lo;
  table.hi = hi;
  table.cumulative.assign(static_cast<size_t>(nodes) + 1, 0.0);
  if (hi <= lo) return table;
  const double step = (hi - lo) / nodes;
  // Boundary kernels are second-order kernels with a negative lobe; the
  // density is truncated at zero so the cumulative table is non-decreasing
  // and the resulting selectivities are monotone in the query bounds.
  double previous = std::max(BoundaryKernelDensity(lo), 0.0);
  for (int i = 1; i <= nodes; ++i) {
    const double current = std::max(BoundaryKernelDensity(lo + i * step), 0.0);
    table.cumulative[i] =
        table.cumulative[i - 1] + 0.5 * step * (previous + current);
    previous = current;
  }
  return table;
}

double KernelEstimator::StripTable::CumulativeAt(double x) const {
  if (cumulative.size() < 2 || x <= lo) return 0.0;
  if (x >= hi) return cumulative.back();
  const double position =
      (x - lo) / (hi - lo) * static_cast<double>(cumulative.size() - 1);
  const auto index = static_cast<size_t>(position);
  const double fraction = position - static_cast<double>(index);
  if (index + 1 >= cumulative.size()) return cumulative.back();
  return cumulative[index] +
         fraction * (cumulative[index + 1] - cumulative[index]);
}

double KernelEstimator::StripTable::Mass(double x1, double x2) const {
  if (x2 <= x1) return 0.0;
  return CumulativeAt(x2) - CumulativeAt(x1);
}

double KernelEstimator::CdfSum(double a, double b) const {
  if (options_.kernel.type() == KernelType::kEpanechnikov) {
    return (cdf_table_.MassBelow(b) - cdf_table_.MassBelow(a)) /
           static_cast<double>(original_count_);
  }
  const double h = options_.bandwidth;
  const double radius = options_.kernel.support_radius() * h;
  const Kernel& kernel = options_.kernel;
  const double* data = sorted_.data();
  const size_t n = sorted_.size();
  double sum = 0.0;
  if (a + radius <= b - radius) {
    // Samples in [a+radius, b−radius] contribute exactly 1 (the first case
    // of Alg. 1); count them with two binary searches.
    const size_t full_lo = BranchFreeLowerBound(data, n, a + radius);
    const size_t full_hi = BranchFreeUpperBound(data, n, b - radius);
    sum += static_cast<double>(full_hi - full_lo);
    // Left fringe: samples in [a−radius, a+radius).
    const size_t left_lo = BranchFreeLowerBound(data, n, a - radius);
    for (size_t i = left_lo; i != full_lo; ++i) {
      sum += kernel.Cdf((b - data[i]) / h) - kernel.Cdf((a - data[i]) / h);
    }
    // Right fringe: samples in (b−radius, b+radius].
    const size_t right_hi = BranchFreeUpperBound(data, n, b + radius);
    for (size_t i = full_hi; i != right_hi; ++i) {
      sum += kernel.Cdf((b - data[i]) / h) - kernel.Cdf((a - data[i]) / h);
    }
  } else {
    // Narrow query: the fringes overlap; scan every contributing sample.
    const size_t lo = BranchFreeLowerBound(data, n, a - radius);
    const size_t hi = BranchFreeUpperBound(data, n, b + radius);
    for (size_t i = lo; i != hi; ++i) {
      sum += kernel.Cdf((b - data[i]) / h) - kernel.Cdf((a - data[i]) / h);
    }
  }
  return sum / static_cast<double>(original_count_);
}

double KernelEstimator::EstimateSelectivity(double a, double b) const {
  if (!(a <= b)) return 0.0;  // inverted range or a NaN bound
  a = domain_.Clamp(a);
  b = domain_.Clamp(b);
  if (a >= b) {
    // A degenerate (point) query still intersects atoms under histogram
    // estimators, but a kernel density assigns it zero mass.
    return 0.0;
  }

  if (options_.boundary != BoundaryPolicy::kBoundaryKernel) {
    return std::clamp(CdfSum(a, b), 0.0, 1.0);
  }

  // Boundary-kernel policy: the strips [l, l+h) and (r−h, r] use the
  // precomputed cumulative-mass tables of the corrected density; the
  // interior is analytic via the kernel CDF.
  double total = left_strip_.Mass(a, b);
  const double interior_lo = std::max(a, left_strip_.hi);
  const double interior_hi = std::min(b, right_strip_.lo);
  if (interior_lo < interior_hi) {
    total += CdfSum(interior_lo, interior_hi);
  }
  total += right_strip_.Mass(a, b);
  return std::clamp(total, 0.0, 1.0);
}

double KernelEstimator::EstimateSelectivityAlgorithm1(double a,
                                                      double b) const {
  SELEST_CHECK(options_.boundary == BoundaryPolicy::kNone);
  const double h = options_.bandwidth;
  SELEST_CHECK_GE(b - a, 2.0 * h);
  const Kernel& kernel = options_.kernel;
  // F(t) in the paper is the primitive with F(0) = 0; Cdf(t) = 0.5 + F(t).
  const auto primitive = [&kernel](double t) { return kernel.Cdf(t) - 0.5; };
  double s = 0.0;
  for (double x : sorted_) {
    const bool in_core = x >= a + h && x <= b - h;
    const bool in_left = x >= a - h && x <= a + h;
    const bool in_right = x >= b - h && x <= b + h;
    if (in_core) {
      s += 1.0;
    } else if (in_left && !in_right) {
      s += 0.5 - primitive((a - x) / h);
    } else if (in_right && !in_left) {
      // The paper prints "F((b−X)/h) − 0.5" here, but the contribution is
      // ∫_{(a−X)/h}^{(b−X)/h} K = Cdf((b−X)/h) − 0 = F((b−X)/h) + 0.5
      // (the lower limit is below −1 whenever b − a >= 2h). The printed
      // sign is a typo: it would yield negative contributions.
      s += primitive((b - x) / h) + 0.5;
    } else if (in_left || in_right) {
      s += primitive((b - x) / h) - primitive((a - x) / h);
    }
  }
  return s / static_cast<double>(original_count_);
}

size_t KernelEstimator::StorageBytes() const {
  // The catalog stores the original sample and the bandwidth; reflected
  // copies are derivable.
  return sizeof(double) * (original_count_ + 1);
}

std::string KernelEstimator::name() const {
  return "kernel(" + options_.kernel.name() + ", " +
         BoundaryPolicyName(options_.boundary) + ")";
}

Status KernelEstimator::SerializeState(ByteWriter& writer) const {
  writer.WriteDoubleVector(sorted_);
  writer.WriteU64(original_count_);
  WriteDomain(writer, domain_);
  writer.WriteDouble(options_.bandwidth);
  WriteKernel(writer, options_.kernel);
  WriteBoundaryPolicy(writer, options_.boundary);
  writer.WriteU32(static_cast<uint32_t>(options_.quadrature_intervals));
  for (const StripTable* strip : {&left_strip_, &right_strip_}) {
    writer.WriteDouble(strip->lo);
    writer.WriteDouble(strip->hi);
    writer.WriteDoubleVector(strip->cumulative);
  }
  return Status::Ok();
}

StatusOr<KernelEstimator> KernelEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(std::vector<double> sorted,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(const uint64_t original_count, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  KernelEstimatorOptions options;
  SELEST_ASSIGN_OR_RETURN(options.bandwidth, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(options.kernel, ReadKernel(reader));
  SELEST_ASSIGN_OR_RETURN(options.boundary, ReadBoundaryPolicy(reader));
  SELEST_ASSIGN_OR_RETURN(const uint32_t quadrature, reader.ReadU32());
  if (sorted.empty() || !std::is_sorted(sorted.begin(), sorted.end()) ||
      !std::all_of(sorted.begin(), sorted.end(),
                   [](double x) { return std::isfinite(x); })) {
    return InvalidArgumentError(
        "kernel snapshot samples must be non-empty, finite and sorted");
  }
  // Reflection adds at most two mirrored copies per original sample.
  if (original_count < 1 || original_count > sorted.size()) {
    return InvalidArgumentError("kernel snapshot sample count out of range");
  }
  if (!(options.bandwidth > 0.0) || !std::isfinite(options.bandwidth)) {
    return InvalidArgumentError("kernel snapshot bandwidth must be positive");
  }
  if (quadrature < 2 || quadrature > (1u << 20)) {
    return InvalidArgumentError(
        "kernel snapshot quadrature resolution out of range");
  }
  options.quadrature_intervals = static_cast<int>(quadrature);
  // The strip tables are restored verbatim below, not rebuilt.
  KernelEstimator estimator(std::move(sorted), original_count, domain,
                            options);
  for (StripTable* strip : {&estimator.left_strip_, &estimator.right_strip_}) {
    SELEST_ASSIGN_OR_RETURN(strip->lo, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(strip->hi, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(strip->cumulative, reader.ReadDoubleVector());
    if (!std::isfinite(strip->lo) || !std::isfinite(strip->hi) ||
        strip->lo > strip->hi ||
        !std::is_sorted(strip->cumulative.begin(), strip->cumulative.end())) {
      return InvalidArgumentError(
          "kernel snapshot strip table is not a cumulative mass table");
    }
  }
  return estimator;
}

}  // namespace selest
