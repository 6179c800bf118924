#include "src/est/wavelet_histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "src/est/estimator_snapshot.h"
#include "src/util/check.h"

namespace selest {
namespace {

constexpr double kInvSqrt2 = 0.7071067811865475;

bool IsPowerOfTwo(int value) {
  return value > 0 && (value & (value - 1)) == 0;
}

}  // namespace

void HaarTransform(std::span<double> values) {
  SELEST_CHECK(IsPowerOfTwo(static_cast<int>(values.size())));
  std::vector<double> scratch(values.size());
  for (size_t length = values.size(); length > 1; length /= 2) {
    const size_t half = length / 2;
    for (size_t i = 0; i < half; ++i) {
      scratch[i] = (values[2 * i] + values[2 * i + 1]) * kInvSqrt2;
      scratch[half + i] = (values[2 * i] - values[2 * i + 1]) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<long>(length),
              values.begin());
  }
}

void InverseHaarTransform(std::span<double> values) {
  SELEST_CHECK(IsPowerOfTwo(static_cast<int>(values.size())));
  std::vector<double> scratch(values.size());
  for (size_t length = 2; length <= values.size(); length *= 2) {
    const size_t half = length / 2;
    for (size_t i = 0; i < half; ++i) {
      scratch[2 * i] = (values[i] + values[half + i]) * kInvSqrt2;
      scratch[2 * i + 1] = (values[i] - values[half + i]) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<long>(length),
              values.begin());
  }
}

StatusOr<WaveletHistogram> WaveletHistogram::Create(
    std::span<const double> sample, const Domain& domain,
    int num_coefficients, int base_bins) {
  if (sample.empty()) {
    return InvalidArgumentError("wavelet histogram needs a sample");
  }
  if (num_coefficients < 1) {
    return InvalidArgumentError("wavelet histogram needs >= 1 coefficient");
  }
  if (!IsPowerOfTwo(base_bins)) {
    return InvalidArgumentError("base_bins must be a power of two");
  }
  if (num_coefficients > base_bins) {
    return InvalidArgumentError("num_coefficients must be <= base_bins");
  }

  // Frequency vector over the fine cells.
  std::vector<double> coefficients(static_cast<size_t>(base_bins), 0.0);
  const double cell_width = domain.width() / base_bins;
  for (double v : sample) {
    auto cell = static_cast<long>((domain.Clamp(v) - domain.lo) / cell_width);
    cell = std::clamp<long>(cell, 0, base_bins - 1);
    coefficients[static_cast<size_t>(cell)] += 1.0;
  }

  // Transform, threshold to the top-B magnitudes (always keeping the
  // overall average at index 0), reconstruct.
  HaarTransform(coefficients);
  std::vector<size_t> order(coefficients.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::fabs(coefficients[a]) > std::fabs(coefficients[b]);
  });
  std::vector<bool> keep(coefficients.size(), false);
  keep[0] = true;
  int kept = 1;
  for (size_t rank = 0; rank < order.size() && kept < num_coefficients;
       ++rank) {
    if (keep[order[rank]]) continue;
    keep[order[rank]] = true;
    ++kept;
  }
  for (size_t i = 0; i < coefficients.size(); ++i) {
    if (!keep[i]) coefficients[i] = 0.0;
  }
  InverseHaarTransform(coefficients);

  // Thresholding can produce small negative frequencies; clamp and
  // renormalize to the sample mass.
  double total = 0.0;
  for (double& c : coefficients) {
    c = std::max(c, 0.0);
    total += c;
  }
  const double n = static_cast<double>(sample.size());
  if (total > 0.0) {
    for (double& c : coefficients) c *= n / total;
  } else {
    // Degenerate reconstruction: fall back to uniform.
    std::fill(coefficients.begin(), coefficients.end(), n / base_bins);
  }

  std::vector<double> edges(static_cast<size_t>(base_bins) + 1);
  for (int i = 0; i <= base_bins; ++i) {
    edges[static_cast<size_t>(i)] =
        i == base_bins ? domain.hi : domain.lo + i * cell_width;
  }
  auto bins = BinnedDensity::Create(std::move(edges), std::move(coefficients),
                                    n);
  if (!bins.ok()) return bins.status();
  return WaveletHistogram(std::move(bins).value(), num_coefficients);
}

double WaveletHistogram::EstimateSelectivity(double a, double b) const {
  return bins_.Selectivity(a, b);
}

size_t WaveletHistogram::StorageBytes() const {
  // Index (u32) + value (double) per kept coefficient.
  return static_cast<size_t>(num_coefficients_) *
         (sizeof(uint32_t) + sizeof(double));
}

std::string WaveletHistogram::name() const {
  return "wavelet(" + std::to_string(num_coefficients_) + ")";
}

Status WaveletHistogram::SerializeState(ByteWriter& writer) const {
  // The reconstructed density, not the coefficient synopsis: loading must
  // answer bit-identically without re-running the inverse transform.
  WriteBinnedDensity(writer, bins_);
  writer.WriteU32(static_cast<uint32_t>(num_coefficients_));
  return Status::Ok();
}

StatusOr<WaveletHistogram> WaveletHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(BinnedDensity bins, ReadBinnedDensity(reader));
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_coefficients, reader.ReadU32());
  if (num_coefficients < 1 || num_coefficients > bins.num_bins()) {
    return InvalidArgumentError(
        "wavelet snapshot coefficient count out of range");
  }
  return WaveletHistogram(std::move(bins),
                          static_cast<int>(num_coefficients));
}

}  // namespace selest
