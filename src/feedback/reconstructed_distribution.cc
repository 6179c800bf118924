#include "src/feedback/reconstructed_distribution.h"

#include <algorithm>
#include <cmath>

#include "src/density/equal_width_grid.h"
#include "src/est/estimator_snapshot.h"

namespace selest {
namespace {

// Two constraints name the same range when their endpoints are bitwise
// equal; feedback for an identical query replaces the stale value.
bool SameRange(const SelectivityConstraint& c, double a, double b) {
  return c.a == a && c.b == b;
}

Status ValidateOptions(const ReconstructedDistributionOptions& options) {
  if (options.num_bins < 1) {
    return InvalidArgumentError("reconstructed distribution needs >= 1 bin");
  }
  if (options.solver != ReconstructionSolver::kMaxEntropy &&
      options.solver != ReconstructionSolver::kLeastSquares) {
    return InvalidArgumentError("unknown reconstruction solver");
  }
  if (options.solve_sweeps < 1 || options.solve_sweeps > 100000) {
    return InvalidArgumentError("solve_sweeps must be in [1, 100000]");
  }
  if (!(options.tolerance >= 0.0)) {
    return InvalidArgumentError("tolerance must be >= 0");
  }
  if (options.max_constraints < 1 || options.max_constraints > (1u << 20)) {
    return InvalidArgumentError("max_constraints must be in [1, 2^20]");
  }
  if (!(options.damping > 0.0) || options.damping > 1.0) {
    return InvalidArgumentError("damping must be in (0, 1]");
  }
  return Status::Ok();
}

}  // namespace

const char* ReconstructionSolverName(ReconstructionSolver solver) {
  switch (solver) {
    case ReconstructionSolver::kMaxEntropy:
      return "max-entropy";
    case ReconstructionSolver::kLeastSquares:
      return "least-squares";
  }
  return "unknown";
}

StatusOr<ReconstructedDistributionEstimator>
ReconstructedDistributionEstimator::Create(
    const Domain& domain, const ReconstructedDistributionOptions& options) {
  SELEST_RETURN_IF_ERROR(ValidateOptions(options));
  std::vector<double> masses(static_cast<size_t>(options.num_bins),
                             1.0 / options.num_bins);
  return ReconstructedDistributionEstimator(domain, options,
                                            std::move(masses));
}

StatusOr<ReconstructedDistributionEstimator>
ReconstructedDistributionEstimator::CreateFromSample(
    std::span<const double> sample, const Domain& domain,
    const ReconstructedDistributionOptions& options) {
  auto estimator = Create(domain, options);
  if (!estimator.ok()) return estimator.status();
  if (sample.empty()) {
    return InvalidArgumentError("CreateFromSample needs a non-empty sample");
  }
  std::vector<double>& masses = estimator->masses_;
  std::fill(masses.begin(), masses.end(), 0.0);
  const EqualWidthGrid grid{domain, masses.size()};
  for (double v : sample) {
    masses[grid.BinOf(v)] += 1.0 / static_cast<double>(sample.size());
  }
  return estimator;
}

double ReconstructedDistributionEstimator::ConstraintEstimate(
    const SelectivityConstraint& c) const {
  const EqualWidthGrid grid{domain_, masses_.size()};
  double estimate = 0.0;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, c.a, c.b);
    if (fraction > 0.0) estimate += fraction * masses_[i];
  }
  return estimate;
}

double ReconstructedDistributionEstimator::EstimateSelectivity(
    double a, double b) const {
  return EqualWidthGrid{domain_, masses_.size()}.Selectivity(masses_, a, b);
}

void ReconstructedDistributionEstimator::ApplyMaxEntropy(
    const SelectivityConstraint& c) {
  const EqualWidthGrid grid{domain_, masses_.size()};
  const double estimate = ConstraintEstimate(c);
  if (estimate > 1e-12) {
    // Proportional fitting: scale the covered part of every overlapping bin
    // so the constraint is met (damped); uncovered parts keep their mass.
    const double ratio = c.selectivity / estimate;
    const double factor = 1.0 + options_.damping * (ratio - 1.0);
    for (size_t i = 0; i < masses_.size(); ++i) {
      const double fraction = grid.Overlap(i, c.a, c.b);
      if (fraction <= 0.0) continue;
      // Clipped at 0 like the least-squares step: a fully covered bin's
      // fraction can round to 1 + ε, and with a zero target (factor 0)
      // the unclipped multiplier is −ε, a negative mass the snapshot
      // loader rejects.
      masses_[i] *= std::max(0.0, (1.0 - fraction) + fraction * factor);
    }
    return;
  }
  if (c.selectivity <= 0.0) return;  // zero mass, zero target: satisfied
  // The constrained region is empty but the observation says it holds mass:
  // seed it ∝ covered fraction, normalized by Σ fraction² so the region's
  // estimate lands on the target exactly (the multiplicative rule cannot
  // lift zero mass).
  double sum_sq_fraction = 0.0;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, c.a, c.b);
    sum_sq_fraction += fraction * fraction;
  }
  if (sum_sq_fraction <= 0.0) return;
  const double scale = options_.damping * c.selectivity / sum_sq_fraction;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, c.a, c.b);
    if (fraction > 0.0) masses_[i] += scale * fraction;
  }
}

void ReconstructedDistributionEstimator::ApplyLeastSquares(
    const SelectivityConstraint& c) {
  // Kaczmarz projection onto the hyperplane Σ f_i m_i = s, clipped at 0.
  const EqualWidthGrid grid{domain_, masses_.size()};
  const double residual = c.selectivity - ConstraintEstimate(c);
  double sum_sq_fraction = 0.0;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, c.a, c.b);
    sum_sq_fraction += fraction * fraction;
  }
  if (sum_sq_fraction <= 0.0) return;
  const double step = options_.damping * residual / sum_sq_fraction;
  for (size_t i = 0; i < masses_.size(); ++i) {
    const double fraction = grid.Overlap(i, c.a, c.b);
    if (fraction <= 0.0) continue;
    masses_[i] = std::max(0.0, masses_[i] + step * fraction);
  }
}

void ReconstructedDistributionEstimator::Normalize() {
  double total = 0.0;
  for (double m : masses_) total += m;
  if (total > 0.0) {
    for (double& m : masses_) m /= total;
  } else {
    std::fill(masses_.begin(), masses_.end(), 1.0 / masses_.size());
  }
}

void ReconstructedDistributionEstimator::Solve() {
  for (int sweep = 0; sweep < options_.solve_sweeps; ++sweep) {
    for (const SelectivityConstraint& c : constraints_) {
      if (options_.solver == ReconstructionSolver::kMaxEntropy) {
        ApplyMaxEntropy(c);
      } else {
        ApplyLeastSquares(c);
      }
    }
    Normalize();
    double worst = 0.0;
    for (const SelectivityConstraint& c : constraints_) {
      worst = std::max(worst, std::abs(c.selectivity - ConstraintEstimate(c)));
    }
    max_residual_ = worst;
    if (worst <= options_.tolerance) break;
  }
}

Status ReconstructedDistributionEstimator::ObserveTrueSelectivity(
    const RangeQuery& query, double true_selectivity) {
  if (std::isnan(true_selectivity) || true_selectivity < 0.0 ||
      true_selectivity > 1.0) {
    return InvalidArgumentError("true selectivity must be in [0, 1]");
  }
  const double a = domain_.Clamp(query.a);
  const double b = domain_.Clamp(query.b);
  if (!(a < b)) {
    // NaN, inverted, or degenerate queries carry no density information.
    return InvalidArgumentError("feedback query is not a non-empty range");
  }
  ++observations_;
  const SelectivityConstraint incoming{a, b, true_selectivity};
  // An observation the current solution already explains exactly carries no
  // new information, so the (event-driven) solver does not run: feedback at
  // the fixed point is exactly idempotent. The constraint is still retained
  // for future solves.
  const bool satisfied = ConstraintEstimate(incoming) == true_selectivity;
  auto existing = std::find_if(
      constraints_.begin(), constraints_.end(),
      [&](const SelectivityConstraint& c) { return SameRange(c, a, b); });
  if (existing != constraints_.end()) {
    // Same range observed again: the newer truth supersedes the stale one
    // (this is how the estimator tracks drift); move it to the back so the
    // ring evicts by recency of information, not first arrival.
    constraints_.erase(existing);
  }
  constraints_.push_back(incoming);
  if (constraints_.size() > options_.max_constraints) {
    constraints_.erase(constraints_.begin());
  }
  if (!satisfied) Solve();
  return Status::Ok();
}

size_t ReconstructedDistributionEstimator::StorageBytes() const {
  return masses_.size() * sizeof(double) +
         constraints_.size() * sizeof(SelectivityConstraint);
}

std::string ReconstructedDistributionEstimator::name() const {
  return std::string("reconstructed(") + std::to_string(masses_.size()) + "," +
         ReconstructionSolverName(options_.solver) + ")";
}

Status ReconstructedDistributionEstimator::SerializeState(
    ByteWriter& writer) const {
  WriteDomain(writer, domain_);
  writer.WriteU32(static_cast<uint32_t>(options_.solver));
  writer.WriteU32(static_cast<uint32_t>(options_.solve_sweeps));
  writer.WriteDouble(options_.tolerance);
  writer.WriteU64(options_.max_constraints);
  writer.WriteDouble(options_.damping);
  // The solved masses are persisted directly, so a reloaded instance
  // answers bit-identically without re-running the solver.
  writer.WriteDoubleVector(masses_);
  writer.WriteU32(static_cast<uint32_t>(constraints_.size()));
  for (const SelectivityConstraint& c : constraints_) {
    writer.WriteDouble(c.a);
    writer.WriteDouble(c.b);
    writer.WriteDouble(c.selectivity);
  }
  writer.WriteU64(observations_);
  writer.WriteDouble(max_residual_);
  return Status::Ok();
}

StatusOr<ReconstructedDistributionEstimator>
ReconstructedDistributionEstimator::DeserializeState(ByteReader& reader) {
  SELEST_ASSIGN_OR_RETURN(const Domain domain, ReadDomain(reader));
  ReconstructedDistributionOptions options;
  SELEST_ASSIGN_OR_RETURN(const uint32_t solver, reader.ReadU32());
  SELEST_ASSIGN_OR_RETURN(const uint32_t sweeps, reader.ReadU32());
  SELEST_ASSIGN_OR_RETURN(options.tolerance, reader.ReadDouble());
  SELEST_ASSIGN_OR_RETURN(const uint64_t max_constraints, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(options.damping, reader.ReadDouble());
  if (solver > static_cast<uint32_t>(ReconstructionSolver::kLeastSquares)) {
    return InvalidArgumentError("reconstructed snapshot solver is unknown");
  }
  options.solver = static_cast<ReconstructionSolver>(solver);
  options.solve_sweeps = static_cast<int>(sweeps);
  options.max_constraints = static_cast<size_t>(max_constraints);
  SELEST_ASSIGN_OR_RETURN(std::vector<double> masses,
                          reader.ReadDoubleVector());
  if (masses.empty() || masses.size() > (1u << 24)) {
    return InvalidArgumentError("reconstructed snapshot bin count is invalid");
  }
  for (double m : masses) {
    if (!std::isfinite(m) || m < 0.0) {
      return InvalidArgumentError("reconstructed snapshot masses are invalid");
    }
  }
  options.num_bins = static_cast<int>(masses.size());
  SELEST_RETURN_IF_ERROR(ValidateOptions(options));
  SELEST_ASSIGN_OR_RETURN(const uint32_t num_constraints, reader.ReadU32());
  if (num_constraints > options.max_constraints) {
    return InvalidArgumentError(
        "reconstructed snapshot constraint count exceeds capacity");
  }
  std::vector<SelectivityConstraint> constraints;
  constraints.reserve(num_constraints);
  for (uint32_t i = 0; i < num_constraints; ++i) {
    SelectivityConstraint c;
    SELEST_ASSIGN_OR_RETURN(c.a, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(c.b, reader.ReadDouble());
    SELEST_ASSIGN_OR_RETURN(c.selectivity, reader.ReadDouble());
    if (!std::isfinite(c.a) || !std::isfinite(c.b) || !(c.a < c.b) ||
        !(c.selectivity >= 0.0) || c.selectivity > 1.0) {
      return InvalidArgumentError(
          "reconstructed snapshot constraint is invalid");
    }
    constraints.push_back(c);
  }
  SELEST_ASSIGN_OR_RETURN(const uint64_t observations, reader.ReadU64());
  SELEST_ASSIGN_OR_RETURN(const double max_residual, reader.ReadDouble());
  if (!std::isfinite(max_residual) || max_residual < 0.0) {
    return InvalidArgumentError("reconstructed snapshot residual is invalid");
  }
  ReconstructedDistributionEstimator estimator(domain, options,
                                               std::move(masses));
  estimator.constraints_ = std::move(constraints);
  estimator.observations_ = observations;
  estimator.max_residual_ = max_residual;
  return estimator;
}

}  // namespace selest
