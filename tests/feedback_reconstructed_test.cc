// ReconstructedDistributionEstimator: solving a piecewise-constant density
// from accumulated (range, selectivity) constraints — solver behavior,
// constraint-ring bookkeeping, and the residual diagnostic.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/domain.h"
#include "src/est/estimator_snapshot.h"
#include "src/feedback/reconstructed_distribution.h"
#include "src/query/range_query.h"
#include "src/util/random.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

ReconstructedDistributionEstimator Make(
    const ReconstructedDistributionOptions& options = {}) {
  auto created = ReconstructedDistributionEstimator::Create(kDomain, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

TEST(ReconstructedTest, StartsUniform) {
  ReconstructedDistributionEstimator estimator = Make();
  EXPECT_DOUBLE_EQ(estimator.EstimateSelectivity(0.0, 50.0), 0.5);
  EXPECT_DOUBLE_EQ(estimator.EstimateSelectivity(25.0, 75.0), 0.5);
  EXPECT_EQ(estimator.constraints().size(), 0u);
  EXPECT_EQ(estimator.max_residual(), 0.0);
}

TEST(ReconstructedTest, SingleConstraintIsSolvedToTheObservedValue) {
  for (ReconstructionSolver solver : {ReconstructionSolver::kMaxEntropy,
                                      ReconstructionSolver::kLeastSquares}) {
    ReconstructedDistributionOptions options;
    options.solver = solver;
    // Per-sweep renormalization makes a lone constraint converge only
    // geometrically — the contraction factor per sweep is the constrained
    // mass itself (0.8 here), so the default 24-sweep budget leaves a
    // ~0.8^24 ≈ 5e-3 residual. 96 sweeps drive it below the 1e-6 check.
    options.solve_sweeps = 96;
    ReconstructedDistributionEstimator estimator = Make(options);
    // Uniform says 0.25 for [0, 25]; the observation says 0.8.
    ASSERT_TRUE(
        estimator.ObserveTrueSelectivity({0.0, 25.0}, 0.8).ok());
    EXPECT_NEAR(estimator.EstimateSelectivity(0.0, 25.0), 0.8, 1e-6)
        << ReconstructionSolverName(solver);
    // Mass is conserved: the remainder of the domain holds what is left.
    EXPECT_NEAR(estimator.EstimateSelectivity(25.0, 100.0), 0.2, 1e-6)
        << ReconstructionSolverName(solver);
    EXPECT_LE(estimator.max_residual(), 1e-6);
  }
}

TEST(ReconstructedTest, ConsistentConstraintSetIsReconstructed) {
  // Feed exact prefix selectivities of a two-plateau density (80% of the
  // mass in [0, 50]); both solvers must reconstruct every plateau query.
  for (ReconstructionSolver solver : {ReconstructionSolver::kMaxEntropy,
                                      ReconstructionSolver::kLeastSquares}) {
    ReconstructedDistributionOptions options;
    options.solver = solver;
    options.num_bins = 16;
    ReconstructedDistributionEstimator estimator = Make(options);
    const auto truth = [](double a, double b) {
      const auto cdf = [](double x) {
        return x <= 50.0 ? 0.8 * (x / 50.0) : 0.8 + 0.2 * ((x - 50.0) / 50.0);
      };
      return cdf(b) - cdf(a);
    };
    // Several passes over bin-aligned ranges; the constraint set is exactly
    // representable on the grid, so residuals vanish.
    for (int pass = 0; pass < 4; ++pass) {
      for (double a = 0.0; a < 100.0; a += 12.5) {
        ASSERT_TRUE(estimator
                        .ObserveTrueSelectivity({a, a + 12.5},
                                                truth(a, a + 12.5))
                        .ok());
      }
      ASSERT_TRUE(
          estimator.ObserveTrueSelectivity({0.0, 50.0}, 0.8).ok());
    }
    EXPECT_NEAR(estimator.EstimateSelectivity(0.0, 50.0), 0.8, 0.01)
        << ReconstructionSolverName(solver);
    EXPECT_NEAR(estimator.EstimateSelectivity(50.0, 100.0), 0.2, 0.01)
        << ReconstructionSolverName(solver);
    EXPECT_NEAR(estimator.EstimateSelectivity(0.0, 25.0), 0.4, 0.02)
        << ReconstructionSolverName(solver);
    EXPECT_LT(estimator.max_residual(), 0.01)
        << ReconstructionSolverName(solver);
  }
}

TEST(ReconstructedTest, RepeatedRangeReplacesTheStaleConstraint) {
  ReconstructedDistributionEstimator estimator = Make();
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({10.0, 30.0}, 0.5).ok());
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({40.0, 60.0}, 0.3).ok());
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({10.0, 30.0}, 0.1).ok());
  ASSERT_EQ(estimator.constraints().size(), 2u);
  // The replacement moved to the back of the ring with the newer value.
  EXPECT_EQ(estimator.constraints().back().a, 10.0);
  EXPECT_EQ(estimator.constraints().back().selectivity, 0.1);
  EXPECT_NEAR(estimator.EstimateSelectivity(10.0, 30.0), 0.1, 0.01);
  EXPECT_EQ(estimator.feedback_observations(), 3u);
}

TEST(ReconstructedTest, ConstraintRingEvictsTheOldest) {
  ReconstructedDistributionOptions options;
  options.max_constraints = 4;
  ReconstructedDistributionEstimator estimator = Make(options);
  for (int i = 0; i < 6; ++i) {
    const double a = 10.0 * i;
    ASSERT_TRUE(
        estimator.ObserveTrueSelectivity({a, a + 5.0}, 0.05).ok());
  }
  ASSERT_EQ(estimator.constraints().size(), 4u);
  // Constraints 0 and 1 were evicted; the survivors are 2..5 in order.
  EXPECT_EQ(estimator.constraints().front().a, 20.0);
  EXPECT_EQ(estimator.constraints().back().a, 50.0);
  EXPECT_EQ(estimator.feedback_observations(), 6u);
}

TEST(ReconstructedTest, ZeroMassRegionCanBeRelearned) {
  // Drive a region to zero mass, then observe mass there again: the
  // max-entropy seeding path must be able to lift it (a purely
  // multiplicative rule could not).
  ReconstructedDistributionEstimator estimator = Make();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(estimator.ObserveTrueSelectivity({0.0, 50.0}, 0.0).ok());
    ASSERT_TRUE(estimator.ObserveTrueSelectivity({50.0, 100.0}, 1.0).ok());
  }
  EXPECT_NEAR(estimator.EstimateSelectivity(0.0, 50.0), 0.0, 1e-6);
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({0.0, 50.0}, 0.6).ok());
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({50.0, 100.0}, 0.4).ok());
  EXPECT_NEAR(estimator.EstimateSelectivity(0.0, 50.0), 0.6, 0.05);
}

TEST(ReconstructedTest, SolveIsDeterministic) {
  const auto run = [] {
    ReconstructedDistributionEstimator estimator = Make();
    Rng rng(23);
    for (int i = 0; i < 64; ++i) {
      double a = 100.0 * rng.NextDouble();
      double b = 100.0 * rng.NextDouble();
      if (b < a) std::swap(a, b);
      if (a == b) continue;
      EXPECT_TRUE(
          estimator.ObserveTrueSelectivity({a, b}, rng.NextDouble()).ok());
    }
    return estimator;
  };
  const ReconstructedDistributionEstimator first = run();
  const ReconstructedDistributionEstimator second = run();
  ASSERT_EQ(first.masses().size(), second.masses().size());
  for (size_t i = 0; i < first.masses().size(); ++i) {
    EXPECT_EQ(first.masses()[i], second.masses()[i]) << "bin " << i;
  }
  EXPECT_EQ(first.max_residual(), second.max_residual());
}

TEST(ReconstructedTest, InvalidOptionsAndFeedbackAreRejected) {
  ReconstructedDistributionOptions bad;
  bad.num_bins = 0;
  EXPECT_FALSE(ReconstructedDistributionEstimator::Create(kDomain, bad).ok());
  bad = {};
  bad.damping = 0.0;
  EXPECT_FALSE(ReconstructedDistributionEstimator::Create(kDomain, bad).ok());
  bad = {};
  bad.solve_sweeps = 0;
  EXPECT_FALSE(ReconstructedDistributionEstimator::Create(kDomain, bad).ok());

  ReconstructedDistributionEstimator estimator = Make();
  EXPECT_FALSE(estimator.ObserveTrueSelectivity({30.0, 10.0}, 0.5).ok());
  EXPECT_FALSE(estimator.ObserveTrueSelectivity({10.0, 10.0}, 0.5).ok());
  EXPECT_EQ(estimator.feedback_observations(), 0u);
}

TEST(ReconstructedTest, SampleBuiltPriorIsUsedBeforeAnyFeedback) {
  Rng rng(3);
  std::vector<double> sample(1000);
  for (double& v : sample) v = 25.0 * rng.NextDouble();  // all in [0, 25]
  auto created = ReconstructedDistributionEstimator::CreateFromSample(
      sample, kDomain, {});
  ASSERT_TRUE(created.ok());
  EXPECT_NEAR(created->EstimateSelectivity(0.0, 25.0), 1.0, 0.01);
  EXPECT_NEAR(created->EstimateSelectivity(50.0, 100.0), 0.0, 0.01);
}

// With 30 bins over [0, 100], a fully covered bin's overlap fraction
// rounds to 1 + ε. A zero target used to scale such a bin by −ε: a
// negative mass that the snapshot loader rejects, so the live server's
// write-back could not clone the estimator any more.
TEST(ReconstructedTest, ZeroTargetKeepsCoveredMassesNonNegative) {
  ReconstructedDistributionOptions options;
  options.num_bins = 30;
  ReconstructedDistributionEstimator estimator = Make(options);
  ASSERT_TRUE(estimator.ObserveTrueSelectivity({30.0, 70.0}, 0.0).ok());
  for (double mass : estimator.masses()) EXPECT_GE(mass, 0.0);
  auto bytes = SnapshotEstimator(estimator);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(LoadEstimatorSnapshot(bytes.value()).ok());
}

}  // namespace
}  // namespace selest
