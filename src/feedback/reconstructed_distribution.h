// Distribution reconstruction from query selectivities.
//
// Following *Computing Data Distribution from Query Selectivities*
// (arXiv 2401.06047), this estimator never looks at data rows after
// construction: it maintains a set of (range, true-selectivity)
// constraints harvested from executed queries and solves for the
// piecewise-constant density on a fixed equi-width grid that is
// consistent with all of them. Two deterministic solvers are offered:
//
//   kMaxEntropy   — iterative proportional fitting: each sweep rescales
//                   the mass under every constraint multiplicatively so
//                   the constraint is met, then renormalizes to the
//                   probability simplex. Converges to the max-entropy
//                   density satisfying a consistent constraint set.
//   kLeastSquares — cyclic Kaczmarz projections: each sweep moves the
//                   masses additively along every constraint's overlap
//                   row to cancel its residual, clips at zero, then
//                   renormalizes. Minimizes the squared residual of an
//                   inconsistent (drifting) constraint set.
//
// The solve is budgeted (solve_sweeps) and warm-started from the previous
// solution, so per-observation cost is bounded and repeated feedback at
// the fixed point is a no-op. The constraint set is a bounded ring: a new
// observation on an already-constrained range replaces the stale value
// (drift updates in place), and beyond max_constraints the oldest
// constraint is dropped.
#ifndef SELEST_FEEDBACK_RECONSTRUCTED_DISTRIBUTION_H_
#define SELEST_FEEDBACK_RECONSTRUCTED_DISTRIBUTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

enum class ReconstructionSolver : uint32_t {
  kMaxEntropy = 0,
  kLeastSquares = 1,
};

const char* ReconstructionSolverName(ReconstructionSolver solver);

struct ReconstructedDistributionOptions {
  int num_bins = 64;
  ReconstructionSolver solver = ReconstructionSolver::kMaxEntropy;
  // Full passes over the constraint set per observation (fixed budget; the
  // sweep loop exits early once the worst residual drops below tolerance).
  int solve_sweeps = 24;
  double tolerance = 1e-9;
  // Ring capacity for retained constraints; oldest evicted beyond this.
  size_t max_constraints = 256;
  // Step scale in (0, 1]: 1 projects each constraint fully per visit.
  double damping = 1.0;
};

// One harvested feedback fact: σ(a, b) was observed to be `selectivity`.
struct SelectivityConstraint {
  double a = 0.0;
  double b = 0.0;
  double selectivity = 0.0;
};

class ReconstructedDistributionEstimator : public SelectivityEstimator {
 public:
  // Starts from the uniform density (constraints are the only knowledge),
  // or from a sample prior when one is available.
  static StatusOr<ReconstructedDistributionEstimator> Create(
      const Domain& domain, const ReconstructedDistributionOptions& options);
  static StatusOr<ReconstructedDistributionEstimator> CreateFromSample(
      std::span<const double> sample, const Domain& domain,
      const ReconstructedDistributionOptions& options);

  double EstimateSelectivity(double a, double b) const override;
  size_t StorageBytes() const override;
  std::string name() const override;

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kReconstructed;
  }
  Status SerializeState(ByteWriter& writer) const override;
  static StatusOr<ReconstructedDistributionEstimator> DeserializeState(
      ByteReader& reader);

  bool SupportsFeedback() const override { return true; }
  Status ObserveTrueSelectivity(const RangeQuery& query,
                                double true_selectivity) override;
  uint64_t feedback_observations() const override { return observations_; }

  const std::vector<double>& masses() const { return masses_; }
  const std::vector<SelectivityConstraint>& constraints() const {
    return constraints_;
  }
  // Worst |Σ overlap·mass − selectivity| over the constraint set after the
  // last solve (0 before any observation).
  double max_residual() const { return max_residual_; }

 private:
  ReconstructedDistributionEstimator(
      const Domain& domain, const ReconstructedDistributionOptions& options,
      std::vector<double> masses)
      : domain_(domain), options_(options), masses_(std::move(masses)) {}

  // Σ_i overlap(i, a, b) · masses_[i] on the bin grid, unclamped.
  double ConstraintEstimate(const SelectivityConstraint& c) const;
  void ApplyMaxEntropy(const SelectivityConstraint& c);
  void ApplyLeastSquares(const SelectivityConstraint& c);
  void Normalize();
  void Solve();

  Domain domain_;
  ReconstructedDistributionOptions options_;
  std::vector<double> masses_;  // density on the grid; sums to 1
  std::vector<SelectivityConstraint> constraints_;  // arrival order
  uint64_t observations_ = 0;
  double max_residual_ = 0.0;
};

}  // namespace selest

#endif  // SELEST_FEEDBACK_RECONSTRUCTED_DISTRIBUTION_H_
