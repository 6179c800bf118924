// Adaptive selectivity estimation from query feedback.
//
// §6 lists "include the knowledge of previous queries to improve the
// quality of kernel estimators" ([1], Chen & Roussopoulos) as future work.
// FeedbackHistogram realizes the classic version of that idea: an
// equi-width histogram whose bin masses are recalibrated every time the
// true result size of an executed query becomes known. Each observation
// moves the mass of the bins overlapping the query toward the value that
// would have answered the query exactly, by a configurable learning rate —
// so the estimator improves precisely where the workload queries.
//
// The update law (proportional error correction, DESIGN.md §14): when the
// query region holds mass, the observed error is distributed over the
// overlapping bins proportionally to their current overlapped mass; when it
// holds none, the correction is seeded over the overlap ∝ covered fraction
// (normalized by Σ fraction² so the post-observation estimate hits the
// target exactly). An observation whose true selectivity equals the current
// estimate is a no-op, so repeated identical feedback is idempotent at the
// fixed point.
#ifndef SELEST_FEEDBACK_FEEDBACK_HISTOGRAM_H_
#define SELEST_FEEDBACK_FEEDBACK_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

struct FeedbackHistogramOptions {
  int num_bins = 64;
  // Fraction of the observed error corrected per observation, in (0, 1].
  double learning_rate = 0.5;
  // When true, after each observation the bins outside the query are scaled
  // so total mass stays 1 (mass is conserved, errors are redistributed).
  bool renormalize = true;
};

class FeedbackHistogram : public SelectivityEstimator {
 public:
  // Starts from the uniform assumption (no sample needed), or from a sample
  // when one is available.
  static StatusOr<FeedbackHistogram> Create(
      const Domain& domain, const FeedbackHistogramOptions& options);
  static StatusOr<FeedbackHistogram> CreateFromSample(
      std::span<const double> sample, const Domain& domain,
      const FeedbackHistogramOptions& options);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kFeedback;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<FeedbackHistogram> DeserializeState(ByteReader& reader);

  // Feeds back the true selectivity of an executed query. The mass of the
  // overlapping bins is adjusted toward `true_selectivity` by the learning
  // rate, proportionally to each bin's overlapped mass (or uniformly over
  // the overlap when the current estimate there is zero).
  void Observe(const RangeQuery& query, double true_selectivity);

  // The common query-driven interface (SelectivityEstimator, DESIGN.md §14).
  bool SupportsFeedback() const override { return true; }
  Status ObserveTrueSelectivity(const RangeQuery& query,
                                double true_selectivity) override;
  uint64_t feedback_observations() const override { return observations_; }

  size_t observations() const { return static_cast<size_t>(observations_); }
  const std::vector<double>& masses() const { return masses_; }
  // Total mass currently assigned (1 when renormalizing).
  double total_mass() const;

 private:
  FeedbackHistogram(const Domain& domain,
                    const FeedbackHistogramOptions& options,
                    std::vector<double> masses)
      : domain_(domain), options_(options), masses_(std::move(masses)) {}

  Domain domain_;
  FeedbackHistogramOptions options_;
  std::vector<double> masses_;  // mass per bin; intended to sum to ~1
  uint64_t observations_ = 0;
};

}  // namespace selest

#endif  // SELEST_FEEDBACK_FEEDBACK_HISTOGRAM_H_
