// Online learning of selectivities with regret tracking.
//
// Following *Selectivity Estimation for Linear Queries via Online
// Learning* (arXiv 2607.02895), the estimator maintains a probability
// vector p over a fixed equi-width grid and treats each feedback
// observation as one round of online convex optimization: predict
// ŝ = Σ f_i p_i (f_i = fraction of bin i the query covers), suffer the
// squared loss (ŝ − s)², and update multiplicatively by exponentiated
// gradient, with the gradient normalized by the selectivity scale
// max(ŝ, s) so the step tracks relative rather than absolute error
// (range selectivities span orders of magnitude, and the paper scores
// relative error):
//
//     w_i = p_i · exp(−η · 2 f_i (ŝ − s)/max(ŝ, s)),   p ← w / Σ w.
//
// Because p stays on the simplex and 0 ≤ f_i ≤ 1, every estimate is in
// [0, 1] by construction. A zero-error round has zero gradient, so
// repeated identical feedback is exactly idempotent at the fixed point.
//
// Regret accounting: cumulative_loss() sums the online squared losses and
// is monotone non-decreasing. RegretVsBestFixed() compares the online
// loss over the retained observation window against the loss of the best
// *fixed* histogram in hindsight, computed by a deterministic budgeted
// least-squares fit over the same window — the comparator the EG regret
// bound is stated against.
#ifndef SELEST_ONLINE_ONLINE_LEARNING_H_
#define SELEST_ONLINE_ONLINE_LEARNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

struct OnlineLearningOptions {
  int num_bins = 64;
  // EG step size η. Gradients are bounded by 2·|ŝ−s|·f ≤ 2, so moderate
  // values (1–4) adapt within tens of observations without oscillating.
  double learning_rate = 2.0;
  // Weights are floored at this value after each update so a bin whose
  // mass was driven to ~0 can still be re-learned (EG cannot lift an
  // exact zero). Applied only when violated, preserving idempotence.
  double weight_floor = 1e-10;
  // Observations retained for hindsight-regret evaluation; beyond this the
  // oldest rounds leave the regret window (cumulative_loss still counts
  // them).
  size_t history_capacity = 4096;
};

class OnlineLearningEstimator : public SelectivityEstimator {
 public:
  // Starts from the uniform prior, or (with Laplace smoothing, so every
  // weight stays positive for EG) from a sample.
  static StatusOr<OnlineLearningEstimator> Create(
      const Domain& domain, const OnlineLearningOptions& options);
  static StatusOr<OnlineLearningEstimator> CreateFromSample(
      std::span<const double> sample, const Domain& domain,
      const OnlineLearningOptions& options);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kOnlineLearning;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<OnlineLearningEstimator> DeserializeState(
      ByteReader& reader);

  bool SupportsFeedback() const override { return true; }
  Status ObserveTrueSelectivity(const RangeQuery& query,
                                double true_selectivity) override;
  uint64_t feedback_observations() const override { return observations_; }

  // Σ (ŝ_t − s_t)² over every observed round; monotone non-decreasing.
  double cumulative_loss() const { return cumulative_loss_; }
  // Online loss restricted to the retained window (≤ cumulative_loss()).
  double window_loss() const;
  // Squared loss the best fixed histogram in hindsight would have suffered
  // over the retained window (deterministic budgeted least-squares fit).
  double BestFixedHindsightLoss() const;
  // window_loss() − BestFixedHindsightLoss(). Near-zero or negative when
  // the learner has matched the hindsight-optimal fixed histogram.
  double RegretVsBestFixed() const;

  const std::vector<double>& weights() const { return weights_; }

 private:
  struct Round {
    double a = 0.0;
    double b = 0.0;
    double true_selectivity = 0.0;
    double online_loss = 0.0;
  };

  OnlineLearningEstimator(const Domain& domain,
                          const OnlineLearningOptions& options,
                          std::vector<double> weights)
      : domain_(domain), options_(options), weights_(std::move(weights)) {}

  Domain domain_;
  OnlineLearningOptions options_;
  std::vector<double> weights_;  // simplex: Σ = 1, each > 0
  std::vector<Round> history_;   // ring of the last history_capacity rounds
  uint64_t observations_ = 0;
  double cumulative_loss_ = 0.0;
};

}  // namespace selest

#endif  // SELEST_ONLINE_ONLINE_LEARNING_H_
