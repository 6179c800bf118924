#include "src/est/average_shifted_histogram.h"

#include <utility>

namespace selest {

StatusOr<AverageShiftedHistogram> AverageShiftedHistogram::Create(
    std::span<const double> sample, const Domain& domain, int num_bins,
    int num_shifts) {
  if (num_shifts < 1) {
    return InvalidArgumentError("ASH needs >= 1 shift");
  }
  if (num_bins < 1) {
    return InvalidArgumentError("ASH needs >= 1 bin");
  }
  const double bin_width = domain.width() / num_bins;
  std::vector<EquiWidthHistogram> histograms;
  histograms.reserve(num_shifts);
  for (int i = 0; i < num_shifts; ++i) {
    const double shift = bin_width * i / num_shifts;
    auto histogram = EquiWidthHistogram::Create(sample, domain, num_bins,
                                                shift);
    if (!histogram.ok()) return histogram.status();
    histograms.push_back(std::move(histogram).value());
  }
  return AverageShiftedHistogram(std::move(histograms), num_bins);
}

double AverageShiftedHistogram::EstimateSelectivity(double a, double b) const {
  double sum = 0.0;
  for (const EquiWidthHistogram& histogram : histograms_) {
    sum += histogram.EstimateSelectivity(a, b);
  }
  return sum / static_cast<double>(histograms_.size());
}

size_t AverageShiftedHistogram::StorageBytes() const {
  size_t total = 0;
  for (const EquiWidthHistogram& histogram : histograms_) {
    total += histogram.StorageBytes();
  }
  return total;
}

std::string AverageShiftedHistogram::name() const {
  return "ash(" + std::to_string(num_bins_) + "x" +
         std::to_string(num_shifts()) + ")";
}

Status AverageShiftedHistogram::SerializeState(ByteWriter& writer) const {
  writer.WriteU32(static_cast<uint32_t>(num_bins_));
  writer.WriteU32(static_cast<uint32_t>(histograms_.size()));
  for (const EquiWidthHistogram& histogram : histograms_) {
    SELEST_RETURN_IF_ERROR(histogram.SerializeState(writer));
  }
  return Status::Ok();
}

StatusOr<AverageShiftedHistogram> AverageShiftedHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_bins, reader.ReadU32());
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_shifts, reader.ReadU32());
  constexpr uint32_t kMaxShifts = 4096;
  if (num_bins < 1 || num_shifts < 1 || num_shifts > kMaxShifts) {
    return InvalidArgumentError("ASH snapshot shape out of range");
  }
  std::vector<EquiWidthHistogram> histograms;
  histograms.reserve(num_shifts);
  for (uint32_t i = 0; i < num_shifts; ++i) {
    SELEST_ASSIGN_OR_RETURN(EquiWidthHistogram histogram,
                            EquiWidthHistogram::DeserializeState(reader));
    histograms.push_back(std::move(histogram));
  }
  return AverageShiftedHistogram(std::move(histograms),
                                 static_cast<int>(num_bins));
}

}  // namespace selest
