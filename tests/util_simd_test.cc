// The SIMD shim's scalar building blocks and dispatch machinery:
//
//   * BranchFreeLowerBound/BranchFreeUpperBound return exactly the
//     std::lower_bound/std::upper_bound index for every total-ordered
//     input (duplicates, all-equal runs, ±inf keys, out-of-range keys);
//   * AlignedVector storage really is kSimdAlign-aligned;
//   * tier detection, the SELEST_SIMD-independent tier tables, and the
//     ScopedSimdTier override stack behave as documented;
//   * the exactness policy constant is pinned at 0 ULP.
#include "src/util/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace selest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectMatchesStd(const std::vector<double>& data, double key) {
  const size_t lb = BranchFreeLowerBound(data.data(), data.size(), key);
  const size_t ub = BranchFreeUpperBound(data.data(), data.size(), key);
  const size_t std_lb = static_cast<size_t>(
      std::lower_bound(data.begin(), data.end(), key) - data.begin());
  const size_t std_ub = static_cast<size_t>(
      std::upper_bound(data.begin(), data.end(), key) - data.begin());
  EXPECT_EQ(lb, std_lb) << "lower bound, n=" << data.size() << " key=" << key;
  EXPECT_EQ(ub, std_ub) << "upper bound, n=" << data.size() << " key=" << key;
}

TEST(BranchFreeSearchTest, MatchesStdOnRandomArrays) {
  Rng rng(7);
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<double> data(n);
    for (double& v : data) {
      // Coarse grid so duplicate runs are common.
      v = std::floor(rng.NextDouble() * 16.0);
    }
    std::sort(data.begin(), data.end());
    for (int trial = 0; trial < 40; ++trial) {
      ExpectMatchesStd(data, std::floor(rng.NextDouble() * 20.0) - 2.0);
      ExpectMatchesStd(data, rng.NextDouble() * 20.0 - 2.0);
    }
    ExpectMatchesStd(data, -kInf);
    ExpectMatchesStd(data, kInf);
  }
}

TEST(BranchFreeSearchTest, MatchesStdOnLargeArrayAroundEveryValue) {
  Rng rng(11);
  std::vector<double> data(10000);
  for (double& v : data) v = std::floor(rng.NextDouble() * 300.0);
  std::sort(data.begin(), data.end());
  for (double key = -1.0; key <= 301.0; key += 1.0) {
    ExpectMatchesStd(data, key);
    ExpectMatchesStd(data, key + 0.5);
  }
}

TEST(BranchFreeSearchTest, AllEqualAndSingleton) {
  ExpectMatchesStd({}, 1.0);
  ExpectMatchesStd({5.0}, 4.0);
  ExpectMatchesStd({5.0}, 5.0);
  ExpectMatchesStd({5.0}, 6.0);
  std::vector<double> equal(37, 2.5);
  ExpectMatchesStd(equal, 2.0);
  ExpectMatchesStd(equal, 2.5);
  ExpectMatchesStd(equal, 3.0);
}

TEST(BranchFreeSearchTest, InfiniteEntries) {
  const std::vector<double> data = {-kInf, -kInf, 0.0, 1.0, kInf};
  for (double key : {-kInf, -1.0, 0.0, 0.5, 1.0, 2.0, kInf}) {
    ExpectMatchesStd(data, key);
  }
}

TEST(BranchFreeSearchTest, NanKeysMatchStd) {
  // A NaN key makes every `x < key` comparison false, so both std searches
  // stay well-defined: lower_bound returns 0 and upper_bound returns n.
  // The kernel estimator's fringe loops rely on the branch-free searches
  // reproducing exactly that (a lower index can never exceed an upper one).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(13);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 37u, 1000u}) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.NextDouble() * 100.0;
    std::sort(data.begin(), data.end());
    ExpectMatchesStd(data, nan);
    EXPECT_EQ(BranchFreeLowerBound(data.data(), n, nan), 0u);
    EXPECT_EQ(BranchFreeUpperBound(data.data(), n, nan), n);
  }
}

TEST(AlignedVectorTest, DataIsCacheLineAligned) {
  for (size_t n : {1u, 3u, 7u, 64u, 1000u}) {
    AlignedDoubles v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdAlign, 0u)
        << "n=" << n;
  }
}

TEST(SimdDispatchTest, ExactnessPolicyIsBitIdentity) {
  // The identity suite (est_simd_identity_test) compares with EXPECT_EQ;
  // this constant documents — and pins — that the bound is 0 ULP.
  EXPECT_EQ(kSimdUlpTolerance, 0);
}

TEST(SimdDispatchTest, ScalarTierAlwaysSupportedAndTableLess) {
  EXPECT_TRUE(SimdTierSupported(SimdTier::kScalar));
  EXPECT_EQ(SimdOpsForTier(SimdTier::kScalar), nullptr);
}

TEST(SimdDispatchTest, ActiveTierIsSupportedAndConsistent) {
  const SimdTier tier = ActiveSimdTier();
  EXPECT_TRUE(SimdTierSupported(tier));
  const SimdOps* ops = ActiveSimdOps();
  if (tier == SimdTier::kScalar) {
    EXPECT_EQ(ops, nullptr);
  } else {
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops, SimdOpsForTier(tier));
  }
}

TEST(SimdDispatchTest, VectorTiersHaveDocumentedWidths) {
  if (const SimdOps* avx2 = SimdOpsForTier(SimdTier::kAvx2)) {
    EXPECT_EQ(avx2->width, 4);
    EXPECT_NE(avx2->sorted_count_block, nullptr);
  }
  if (const SimdOps* avx512 = SimdOpsForTier(SimdTier::kAvx512)) {
    EXPECT_EQ(avx512->width, 8);
    EXPECT_LE(avx512->width, kMaxSimdWidth);
  }
}

TEST(SimdDispatchTest, ScopedOverrideNestsAndRestores) {
  const SimdTier base = ActiveSimdTier();
  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdOps(), nullptr);
    if (SimdTierSupported(SimdTier::kAvx2)) {
      ScopedSimdTier avx2(SimdTier::kAvx2);
      EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
    }
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveSimdTier(), base);
}

TEST(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx512), "avx512");
}

}  // namespace
}  // namespace selest
