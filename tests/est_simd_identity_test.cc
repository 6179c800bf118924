// SIMD-vs-scalar bit-identity property suite (the exactness policy of
// DESIGN.md §12 and util/simd.h).
//
// For every estimator the factory can build — the 11 EstimatorKind values
// plus the guarded chain — and for every vector tier this host supports,
// EstimateSelectivityBatch must return *bit-identical* values to the
// per-query scalar path: batch sizes {1, 7, 64, 4096}, misaligned query
// subspans, partial tail blocks, and a query mix including inverted,
// degenerate, out-of-domain, boundary-hugging, narrow, and non-finite
// bounds. EXPECT_EQ on doubles throughout — a 0 ULP bound
// (kSimdUlpTolerance), so the golden-figure pins can never drift with the
// host's SIMD tier.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/est/estimator_factory.h"
#include "src/est/kernel_estimator.h"
#include "src/query/range_query.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 100.0);

std::vector<double> MixtureSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(n);
  while (sample.size() < n) {
    const double u = rng.NextDouble();
    double x;
    if (u < 0.35) {
      x = 20.0 + 7.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else if (u < 0.7) {
      x = 75.0 + 4.0 * (rng.NextDouble() + rng.NextDouble() - 1.0);
    } else if (u < 0.85) {
      x = 42.0;  // heavy duplication: atom bins in the quantile histograms
    } else {
      x = 100.0 * rng.NextDouble();
    }
    if (x >= kDomain.lo && x <= kDomain.hi) sample.push_back(x);
  }
  return sample;
}

// Adversarial query mix: every scalar control-flow case, including the
// before-clamp early returns and non-finite bounds.
std::vector<RangeQuery> MakeQueries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuery> queries(n);
  const double lo = kDomain.lo, w = kDomain.width();
  for (size_t i = 0; i < n; ++i) {
    const double x = lo + w * (1.4 * rng.NextDouble() - 0.2);
    const double y = lo + w * (1.4 * rng.NextDouble() - 0.2);
    RangeQuery& q = queries[i];
    switch (i % 8) {
      case 0:  // regular (possibly partially out of domain)
        q = {std::min(x, y), std::max(x, y)};
        break;
      case 1:  // inverted: a > b
        q = {std::max(x, y) + 1.0, std::min(x, y)};
        break;
      case 2:  // degenerate point query
        q = {x, x};
        break;
      case 3:  // narrow: forces the kernel CdfSum narrow case
        q = {x, x + 1e-3 * w * rng.NextDouble()};
        break;
      case 4:  // covers the whole domain
        q = {lo - w, lo + 2.0 * w};
        break;
      case 5:  // hugs the left boundary strip
        q = {lo - 0.1 * w, lo + 0.05 * w * rng.NextDouble()};
        break;
      case 6:  // hugs the right boundary strip
        q = {lo + w * (1.0 - 0.05 * rng.NextDouble()), lo + 1.1 * w};
        break;
      default:  // regular, in-domain
        q = {lo + 0.9 * w * std::min(rng.NextDouble(), rng.NextDouble()),
             lo + 0.9 * w * std::max(rng.NextDouble(), rng.NextDouble())};
        break;
    }
  }
  // Non-finite bounds: NaN and inverted lanes answer 0 in every path.
  if (n >= 64) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    queries[10] = {nan, 50.0};
    queries[21] = {10.0, nan};
    queries[32] = {-inf, 50.0};
    queries[43] = {10.0, inf};
    queries[54] = {-inf, inf};
  }
  return queries;
}

std::vector<SimdTier> SupportedVectorTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierSupported(tier) && SimdOpsForTier(tier) != nullptr) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

const size_t kBatchSizes[] = {1, 7, 64, 4096};

// Reference = per-query EstimateSelectivity (virtual, scalar by
// construction). Checks the batch API under the scalar tier and under
// every supported vector tier, over full spans and a misaligned subspan
// (offset 1 — every block boundary shifts, so tails and replication
// padding are exercised at a different phase).
void ExpectBatchBitIdentical(const SelectivityEstimator& est,
                             const std::string& label) {
  for (const size_t size : kBatchSizes) {
    const auto queries = MakeQueries(size, 1000 + size);
    std::vector<double> reference(size);
    for (size_t i = 0; i < size; ++i) {
      reference[i] = est.EstimateSelectivity(queries[i]);
    }

    const auto check_span = [&](std::span<const RangeQuery> span,
                                std::span<const double> want,
                                const char* what) {
      std::vector<double> got(span.size(), -1.0);
      est.EstimateSelectivityBatch(span, got);
      for (size_t i = 0; i < span.size(); ++i) {
        // Bitwise, not ==: NaN answers (from NaN query bounds) must also
        // reproduce exactly, and == would reject them.
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << label << " tier=" << SimdTierName(ActiveSimdTier()) << " "
            << what << " n=" << span.size() << " query " << i << " ["
            << span[i].a << ", " << span[i].b << "] got=" << got[i]
            << " want=" << want[i];
      }
    };

    {
      ScopedSimdTier scalar(SimdTier::kScalar);
      check_span(queries, reference, "scalar-tier batch");
    }
    for (const SimdTier tier : SupportedVectorTiers()) {
      ScopedSimdTier scoped(tier);
      check_span(queries, reference, "full span");
      if (size > 1) {
        check_span(std::span<const RangeQuery>(queries).subspan(1),
                   std::span<const double>(reference).subspan(1),
                   "misaligned subspan");
      }
    }
  }
}

class SimdIdentityTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(SimdIdentityTest, BatchBitIdenticalAcrossTiers) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  static const std::vector<double>* sample =
      new std::vector<double>(MixtureSample(2000, 77));
  EstimatorConfig config;
  config.kind = GetParam();
  auto est = BuildEstimator(*sample, kDomain, config);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ExpectBatchBitIdentical(**est, (*est)->name());
}

const EstimatorKind kAllKinds[] = {
    EstimatorKind::kSampling,   EstimatorKind::kUniform,
    EstimatorKind::kEquiWidth,  EstimatorKind::kEquiDepth,
    EstimatorKind::kMaxDiff,    EstimatorKind::kAverageShifted,
    EstimatorKind::kKernel,     EstimatorKind::kHybrid,
    EstimatorKind::kVOptimal,   EstimatorKind::kAdaptiveKernel,
    EstimatorKind::kWavelet,    EstimatorKind::kFeedback,
    EstimatorKind::kReconstructed, EstimatorKind::kOnlineLearning,
};

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SimdIdentityTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The 12th estimator type: the guarded chain (bit-transparent over its
// primary when healthy, so it must stay bit-identical too).
TEST(SimdIdentityGuardedTest, GuardedChainBatchBitIdentical) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const auto sample = MixtureSample(2000, 78);
  EstimatorConfig config;
  config.kind = EstimatorKind::kKernel;
  auto guarded = BuildGuardedEstimator(sample, kDomain, config);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  ASSERT_FALSE(guarded->degraded());
  ExpectBatchBitIdentical(*guarded->estimator, "guarded(kernel)");
}

// The kernel estimator's three boundary policies each answer through a
// different path (plain CdfSum, reflected sample strip, strip tables +
// interior); cover them all explicitly on top of the factory defaults.
TEST(SimdIdentityKernelBoundaryTest, AllBoundaryPoliciesBitIdentical) {
  if (SupportedVectorTiers().empty()) {
    GTEST_SKIP() << "host has no vector tier; scalar path is the reference";
  }
  const auto sample = MixtureSample(1500, 79);
  for (const BoundaryPolicy policy :
       {BoundaryPolicy::kNone, BoundaryPolicy::kReflection,
        BoundaryPolicy::kBoundaryKernel}) {
    KernelEstimatorOptions options;
    options.bandwidth = 2.5;
    options.boundary = policy;
    auto est = KernelEstimator::Create(sample, kDomain, options);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    ExpectBatchBitIdentical(*est, est->name());
  }
}

// Non-Epanechnikov kernels scan their samples instead of reading the CDF
// table; the batch API must still match per-query exactly.
TEST(SimdIdentityKernelBoundaryTest, NonEpanechnikovFallsBackCleanly) {
  const auto sample = MixtureSample(800, 80);
  KernelEstimatorOptions options;
  options.bandwidth = 2.5;
  options.kernel = Kernel(KernelType::kBiweight);
  options.boundary = BoundaryPolicy::kNone;
  auto est = KernelEstimator::Create(sample, kDomain, options);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ExpectBatchBitIdentical(*est, est->name());
}

}  // namespace
}  // namespace selest
