#include "src/feedback/feedback_histogram.h"

#include <algorithm>
#include <cmath>

#include "src/density/equal_width_grid.h"
#include "src/est/estimator_snapshot.h"

namespace selest {

StatusOr<FeedbackHistogram> FeedbackHistogram::Create(
    const Domain& domain, const FeedbackHistogramOptions& options) {
  if (options.num_bins < 1) {
    return InvalidArgumentError("feedback histogram needs >= 1 bin");
  }
  if (!(options.learning_rate > 0.0) || options.learning_rate > 1.0) {
    return InvalidArgumentError("learning_rate must be in (0, 1]");
  }
  // Uniform start: the System R assumption, to be corrected by feedback.
  std::vector<double> masses(static_cast<size_t>(options.num_bins),
                             1.0 / options.num_bins);
  return FeedbackHistogram(domain, options, std::move(masses));
}

StatusOr<FeedbackHistogram> FeedbackHistogram::CreateFromSample(
    std::span<const double> sample, const Domain& domain,
    const FeedbackHistogramOptions& options) {
  auto histogram = Create(domain, options);
  if (!histogram.ok()) return histogram.status();
  if (sample.empty()) {
    return InvalidArgumentError("CreateFromSample needs a non-empty sample");
  }
  std::vector<double>& masses = histogram->masses_;
  std::fill(masses.begin(), masses.end(), 0.0);
  const EqualWidthGrid grid{domain, masses.size()};
  for (double v : sample) {
    masses[grid.BinOf(v)] += 1.0 / static_cast<double>(sample.size());
  }
  return histogram;
}

double FeedbackHistogram::EstimateSelectivity(double a, double b) const {
  return EqualWidthGrid{domain_, masses_.size()}.Selectivity(masses_, a, b);
}

void FeedbackHistogram::Observe(const RangeQuery& query,
                                double true_selectivity) {
  if (std::isnan(true_selectivity)) return;
  true_selectivity = std::clamp(true_selectivity, 0.0, 1.0);
  const double a = domain_.Clamp(query.a);
  const double b = domain_.Clamp(query.b);
  if (!(a < b)) return;  // rejects NaN, inverted, and degenerate queries
  ++observations_;
  const EqualWidthGrid grid{domain_, masses_.size()};

  // Current estimate restricted to the query, per overlapping bin.
  std::vector<std::pair<size_t, double>> overlapped;  // (bin, overlap mass)
  double estimate = 0.0;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, a, b);
    if (fraction <= 0.0) continue;
    overlapped.emplace_back(i, fraction * masses_[i]);
    estimate += fraction * masses_[i];
  }
  if (overlapped.empty()) return;

  const double correction =
      options_.learning_rate * (true_selectivity - estimate);
  // A zero-error observation is exactly a no-op (idempotence at the fixed
  // point): even renormalization is skipped, since dividing by a total an
  // ulp away from 1 would still perturb the masses.
  if (correction == 0.0) return;
  if (estimate > 0.0) {
    // Distribute proportionally to each bin's current overlapped mass, and
    // scale the bin's full mass by the same relative factor (the overlapped
    // part absorbs the correction; the non-overlapped part keeps its
    // density ratio).
    for (const auto& [i, overlap_mass] : overlapped) {
      const double share = overlap_mass / estimate;
      const double delta = correction * share;
      const double fraction = grid.Overlap(i, a, b);
      // Only the overlapped fraction of the bin is re-estimated; lift the
      // bin by delta / fraction so the overlapped portion changes by delta.
      masses_[i] = std::max(0.0, masses_[i] + delta / std::max(fraction, 1e-12));
    }
  } else {
    // No current mass in the query: spread the correction over the
    // overlapped bins proportionally to how much of each bin the query
    // covers. Only the covered fraction of each added mass falls back into
    // the query, so normalize by Σ fraction² to make the post-observation
    // estimate hit the target exactly.
    double sum_sq_fraction = 0.0;
    for (const auto& [i, overlap_mass] : overlapped) {
      (void)overlap_mass;
      const double fraction = grid.Overlap(i, a, b);
      sum_sq_fraction += fraction * fraction;
    }
    for (const auto& [i, overlap_mass] : overlapped) {
      (void)overlap_mass;
      const double fraction = grid.Overlap(i, a, b);
      masses_[i] = std::max(
          0.0, masses_[i] + correction * fraction /
                                std::max(sum_sq_fraction, 1e-12));
    }
  }

  if (options_.renormalize) {
    const double total = total_mass();
    if (total > 0.0) {
      for (double& m : masses_) m /= total;
    }
  }
}

Status FeedbackHistogram::ObserveTrueSelectivity(const RangeQuery& query,
                                                 double true_selectivity) {
  if (std::isnan(true_selectivity) || true_selectivity < 0.0 ||
      true_selectivity > 1.0) {
    return InvalidArgumentError("true selectivity must be in [0, 1]");
  }
  Observe(query, true_selectivity);
  return Status::Ok();
}

Status FeedbackHistogram::SerializeState(ByteWriter& writer) const {
  WriteDomain(writer, domain_);
  writer.WriteDouble(options_.learning_rate);
  writer.WriteU32(options_.renormalize ? 1 : 0);
  writer.WriteDoubleVector(masses_);
  writer.WriteU64(observations_);
  return Status::Ok();
}

StatusOr<FeedbackHistogram> FeedbackHistogram::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  FeedbackHistogramOptions options;
  SELEST_ASSIGN_OR_RETURN(options.learning_rate, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(const uint32_t renormalize, reader.ReadU32());
  if (!(options.learning_rate > 0.0) || options.learning_rate > 1.0 ||
      renormalize > 1) {
    return InvalidArgumentError("feedback snapshot options are invalid");
  }
  options.renormalize = renormalize != 0;
  SELEST_ASSIGN_OR_RETURN(std::vector<double> masses,
                          reader.ReadDoubleVector());
  SELEST_ASSIGN_OR_RETURN(const uint64_t observations, reader.ReadU64());
  if (masses.empty() || masses.size() > (1u << 24)) {
    return InvalidArgumentError("feedback snapshot bin count is invalid");
  }
  for (double m : masses) {
    if (!std::isfinite(m) || m < 0.0) {
      return InvalidArgumentError("feedback snapshot masses are invalid");
    }
  }
  options.num_bins = static_cast<int>(masses.size());
  FeedbackHistogram histogram(domain, options, std::move(masses));
  histogram.observations_ = observations;
  return histogram;
}

double FeedbackHistogram::total_mass() const {
  double total = 0.0;
  for (double m : masses_) total += m;
  return total;
}

size_t FeedbackHistogram::StorageBytes() const {
  return masses_.size() * sizeof(double);
}

std::string FeedbackHistogram::name() const {
  return "feedback(" + std::to_string(masses_.size()) + ")";
}

}  // namespace selest
