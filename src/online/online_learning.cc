#include "src/online/online_learning.h"

#include <algorithm>
#include <cmath>

#include "src/density/equal_width_grid.h"
#include "src/est/estimator_snapshot.h"

namespace selest {
namespace {

Status ValidateOptions(const OnlineLearningOptions& options) {
  if (options.num_bins < 1) {
    return InvalidArgumentError("online learning needs >= 1 bin");
  }
  if (!(options.learning_rate > 0.0) || options.learning_rate > 1000.0) {
    return InvalidArgumentError("learning_rate must be in (0, 1000]");
  }
  if (!(options.weight_floor >= 0.0) || options.weight_floor > 1e-3) {
    return InvalidArgumentError("weight_floor must be in [0, 1e-3]");
  }
  if (options.history_capacity < 1 ||
      options.history_capacity > (1u << 20)) {
    return InvalidArgumentError("history_capacity must be in [1, 2^20]");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<OnlineLearningEstimator> OnlineLearningEstimator::Create(
    const Domain& domain, const OnlineLearningOptions& options) {
  SELEST_RETURN_IF_ERROR(ValidateOptions(options));
  std::vector<double> weights(static_cast<size_t>(options.num_bins),
                              1.0 / options.num_bins);
  return OnlineLearningEstimator(domain, options, std::move(weights));
}

StatusOr<OnlineLearningEstimator> OnlineLearningEstimator::CreateFromSample(
    std::span<const double> sample, const Domain& domain,
    const OnlineLearningOptions& options) {
  auto estimator = Create(domain, options);
  if (!estimator.ok()) return estimator.status();
  if (sample.empty()) {
    return InvalidArgumentError("CreateFromSample needs a non-empty sample");
  }
  // Laplace-smoothed frequencies: every weight stays strictly positive, so
  // the multiplicative update can still move any bin.
  std::vector<double>& weights = estimator->weights_;
  std::vector<double> counts(weights.size(), 0.0);
  const EqualWidthGrid grid{domain, weights.size()};
  for (double v : sample) counts[grid.BinOf(v)] += 1.0;
  const double denom =
      static_cast<double>(sample.size()) + static_cast<double>(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = (counts[i] + 1.0) / denom;
  }
  return estimator;
}

double OnlineLearningEstimator::EstimateSelectivity(double a, double b) const {
  return EqualWidthGrid{domain_, weights_.size()}.Selectivity(weights_, a, b);
}

Status OnlineLearningEstimator::ObserveTrueSelectivity(
    const RangeQuery& query, double true_selectivity) {
  if (std::isnan(true_selectivity) || true_selectivity < 0.0 ||
      true_selectivity > 1.0) {
    return InvalidArgumentError("true selectivity must be in [0, 1]");
  }
  const double a = domain_.Clamp(query.a);
  const double b = domain_.Clamp(query.b);
  if (!(a < b)) {
    return InvalidArgumentError("feedback query is not a non-empty range");
  }
  const double estimate = EstimateSelectivity(a, b);
  const double error = estimate - true_selectivity;
  const double loss = error * error;
  ++observations_;
  cumulative_loss_ += loss;
  history_.push_back({a, b, true_selectivity, loss});
  if (history_.size() > options_.history_capacity) {
    history_.erase(history_.begin());
  }
  // Zero error ⇒ zero gradient ⇒ the round is exactly a no-op on the
  // weights: idempotence at the fixed point.
  if (error == 0.0) return Status::Ok();
  // Scale-normalized gradient: dividing by max(ŝ, s) makes the step size
  // track *relative* error, so bins serving tiny selectivities (where the
  // paper's MRE metric lives) adapt as fast as dense ones. The normalized
  // error stays in [-1, 1], bounding the exponent by 2η.
  const double scale = std::max({estimate, true_selectivity, 1e-9});
  const double relative_error = error / scale;
  const EqualWidthGrid grid{domain_, weights_.size()};
  double total = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    const double fraction = grid.Overlap(i, a, b);
    if (fraction > 0.0) {
      const double gradient = 2.0 * relative_error * fraction;
      const double exponent =
          std::clamp(-options_.learning_rate * gradient, -50.0, 50.0);
      weights_[i] *= std::exp(exponent);
    }
    total += weights_[i];
  }
  if (total > 0.0) {
    for (double& w : weights_) w /= total;
  }
  // Re-floor only when violated so fixed-point rounds stay exact no-ops.
  bool floored = false;
  for (double& w : weights_) {
    if (w < options_.weight_floor) {
      w = options_.weight_floor;
      floored = true;
    }
  }
  if (floored) {
    total = 0.0;
    for (double w : weights_) total += w;
    for (double& w : weights_) w /= total;
  }
  return Status::Ok();
}

double OnlineLearningEstimator::window_loss() const {
  double loss = 0.0;
  for (const Round& round : history_) loss += round.online_loss;
  return loss;
}

double OnlineLearningEstimator::BestFixedHindsightLoss() const {
  if (history_.empty()) return 0.0;
  // Deterministic budgeted least-squares fit of a fixed simplex histogram
  // to the retained rounds: cyclic Kaczmarz with non-negativity clipping
  // and renormalization, from the uniform start.
  constexpr int kFitSweeps = 32;
  std::vector<double> fit(weights_.size(), 1.0 / weights_.size());
  const EqualWidthGrid grid{domain_, fit.size()};
  for (int sweep = 0; sweep < kFitSweeps; ++sweep) {
    for (const Round& round : history_) {
      double estimate = 0.0;
      double sum_sq = 0.0;
      for (size_t i = 0; i < fit.size(); ++i) {
        const double fraction = grid.Overlap(i, round.a, round.b);
        estimate += fraction * fit[i];
        sum_sq += fraction * fraction;
      }
      if (sum_sq <= 0.0) continue;
      const double step = (round.true_selectivity - estimate) / sum_sq;
      for (size_t i = 0; i < fit.size(); ++i) {
        const double fraction = grid.Overlap(i, round.a, round.b);
        if (fraction > 0.0) fit[i] = std::max(0.0, fit[i] + step * fraction);
      }
    }
    double total = 0.0;
    for (double m : fit) total += m;
    if (total > 0.0) {
      for (double& m : fit) m /= total;
    }
  }
  double loss = 0.0;
  for (const Round& round : history_) {
    double estimate = 0.0;
    for (size_t i = 0; i < fit.size(); ++i) {
      estimate += grid.Overlap(i, round.a, round.b) * fit[i];
    }
    estimate = std::clamp(estimate, 0.0, 1.0);
    const double error = estimate - round.true_selectivity;
    loss += error * error;
  }
  return loss;
}

double OnlineLearningEstimator::RegretVsBestFixed() const {
  return window_loss() - BestFixedHindsightLoss();
}

size_t OnlineLearningEstimator::StorageBytes() const {
  return weights_.size() * sizeof(double) + history_.size() * sizeof(Round);
}

std::string OnlineLearningEstimator::name() const {
  return "online-learning(" + std::to_string(weights_.size()) + ")";
}

Status OnlineLearningEstimator::SerializeState(ByteWriter& writer) const {
  WriteDomain(writer, domain_);
  writer.WriteDouble(options_.learning_rate);
  writer.WriteDouble(options_.weight_floor);
  writer.WriteU64(options_.history_capacity);
  writer.WriteDoubleVector(weights_);
  writer.WriteU32(static_cast<uint32_t>(history_.size()));
  for (const Round& round : history_) {
    writer.WriteDouble(round.a);
    writer.WriteDouble(round.b);
    writer.WriteDouble(round.true_selectivity);
    writer.WriteDouble(round.online_loss);
  }
  writer.WriteU64(observations_);
  writer.WriteDouble(cumulative_loss_);
  return Status::Ok();
}

StatusOr<OnlineLearningEstimator> OnlineLearningEstimator::DeserializeState(
    ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  OnlineLearningOptions options;
  SELEST_ASSIGN_OR_RETURN(options.learning_rate, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(options.weight_floor, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(const uint64_t capacity, reader.ReadU64());
  options.history_capacity = static_cast<size_t>(capacity);
  SELEST_ASSIGN_OR_RETURN(std::vector<double> weights,
                          reader.ReadDoubleVector());
  if (weights.empty() || weights.size() > (1u << 24)) {
    return InvalidArgumentError(
        "online-learning snapshot bin count is invalid");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return InvalidArgumentError(
          "online-learning snapshot weights are invalid");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    return InvalidArgumentError("online-learning snapshot weights are empty");
  }
  options.num_bins = static_cast<int>(weights.size());
  SELEST_RETURN_IF_ERROR(ValidateOptions(options));
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_rounds, reader.ReadU32());
  if (num_rounds > options.history_capacity) {
    return InvalidArgumentError(
        "online-learning snapshot history exceeds capacity");
  }
  std::vector<Round> history;
  history.reserve(num_rounds);
  for (uint32_t i = 0; i < num_rounds; ++i) {
    Round round;
    SELEST_ASSIGN_OR_RETURN(round.a, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(round.b, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(round.true_selectivity, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(round.online_loss, reader.ReadDouble());
    if (!std::isfinite(round.a) || !std::isfinite(round.b) ||
        !(round.a < round.b) || !(round.true_selectivity >= 0.0) ||
        round.true_selectivity > 1.0 || !std::isfinite(round.online_loss) ||
        round.online_loss < 0.0) {
      return InvalidArgumentError(
          "online-learning snapshot round is invalid");
    }
    history.push_back(round);
  }
  SELEST_ASSIGN_OR_RETURN(const uint64_t observations, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(const double cumulative_loss, reader.ReadDouble());
  if (!std::isfinite(cumulative_loss) || cumulative_loss < 0.0) {
    return InvalidArgumentError("online-learning snapshot loss is invalid");
  }
  OnlineLearningEstimator estimator(domain, options, std::move(weights));
  estimator.history_ = std::move(history);
  estimator.observations_ = observations;
  estimator.cumulative_loss_ = cumulative_loss;
  return estimator;
}

}  // namespace selest
