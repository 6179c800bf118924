// The SIMD shim's scalar building blocks and dispatch machinery:
//
//   * BranchFreeLowerBound/BranchFreeUpperBound return exactly the
//     std::lower_bound/std::upper_bound index for every total-ordered
//     input (duplicates, all-equal runs, ±inf keys, out-of-range keys);
//   * so do CellDirectory's LowerBound/UpperBound, over key sets that
//     stress its cell arithmetic (tiny, subnormal, huge and infinite
//     spans), queried at ±inf, NaN, every key and both its neighbours;
//   * tier detection, the SELEST_SIMD-independent tier tables, and the
//     ScopedSimdTier override stack behave as documented;
//   * the exactness policy constant is pinned at 0 ULP.
#include "src/util/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/cell_directory.h"
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

// --- The cell directory (util/cell_directory.h) ---

// Sorts `keys`, builds the directory and checks both searches against std
// at ±inf, NaN, random points across the span, every key, and the next
// double on either side of every key.
void ExpectDirectoryMatchesStd(std::vector<double> keys, uint64_t seed) {
  std::sort(keys.begin(), keys.end());
  const CellDirectory directory(keys);
  const auto check = [&](double x) {
    const size_t std_lb = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), x) - keys.begin());
    const size_t std_ub = static_cast<size_t>(
        std::upper_bound(keys.begin(), keys.end(), x) - keys.begin());
    ASSERT_EQ(directory.LowerBound(keys.data(), x), std_lb)
        << "m=" << keys.size() << " x=" << x;
    ASSERT_EQ(directory.UpperBound(keys.data(), x), std_ub)
        << "m=" << keys.size() << " x=" << x;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(directory.LowerBound(keys.data(), nan), 0u);
  EXPECT_EQ(directory.UpperBound(keys.data(), nan), keys.size());
  check(-kInf);
  check(kInf);
  for (const double key : keys) {
    check(key);
    check(std::nextafter(key, -kInf));
    check(std::nextafter(key, kInf));
  }
  if (keys.empty()) return;
  Rng rng(seed);
  const double lo = keys.front();
  const double hi = keys.back();
  for (int q = 0; q < 200; ++q) {
    check(lo + (hi - lo) * (1.2 * rng.NextDouble() - 0.1));
  }
}

TEST(CellDirectoryTest, MatchesStdOnUniformAndExponentialKeys) {
  Rng rng(23);
  for (size_t m : {2u, 3u, 4u, 5u, 17u, 64u, 1000u, 4096u}) {
    std::vector<double> uniform(m);
    std::vector<double> exponential(m);
    for (size_t i = 0; i < m; ++i) {
      uniform[i] = 1000.0 * rng.NextDouble() - 500.0;
      exponential[i] = -std::log1p(-rng.NextDouble()) * 1e-3;
    }
    ExpectDirectoryMatchesStd(uniform, m);
    ExpectDirectoryMatchesStd(exponential, m + 1);
  }
}

TEST(CellDirectoryTest, MatchesStdOnHeavyDuplicates) {
  Rng rng(29);
  for (size_t m : {2u, 9u, 100u, 3000u}) {
    std::vector<double> keys(m);
    for (double& v : keys) v = std::floor(rng.NextDouble() * 6.0);
    ExpectDirectoryMatchesStd(keys, m);
    // One value holding almost every key, a few strays at both ends.
    std::vector<double> spike(m, 7.25);
    spike.front() = -1.0;
    spike.back() = 1e6;
    ExpectDirectoryMatchesStd(spike, m + 1);
  }
}

TEST(CellDirectoryTest, MatchesStdOnATinySpanAgainstItsMagnitude) {
  // 1e15 + k: the offsets x − k[0] are exact, but a query's neighbours
  // round onto the quarter-unit grid of doubles near 1e15.
  Rng rng(31);
  std::vector<double> keys;
  for (int k = 0; k < 500; ++k) keys.push_back(1e15 + k);
  ExpectDirectoryMatchesStd(keys, 1);
  std::vector<double> jittered(700);
  for (double& v : jittered) v = 1e15 + 3.0 * rng.NextDouble();
  ExpectDirectoryMatchesStd(jittered, 2);
}

TEST(CellDirectoryTest, MatchesStdOnSubnormalKeys) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  Rng rng(37);
  std::vector<double> multiples;
  for (int k = 0; k < 300; ++k) multiples.push_back(k * tiny);
  ExpectDirectoryMatchesStd(multiples, 1);
  std::vector<double> mixed(400);
  for (double& v : mixed) {
    v = rng.NextDouble() * std::numeric_limits<double>::min() * 4.0;
  }
  ExpectDirectoryMatchesStd(mixed, 2);
  // A subnormal span so small that M/span overflows: one cell.
  const std::vector<double> pair = {0.0, tiny};
  EXPECT_EQ(CellDirectory(pair).num_cells(), 1u);
  ExpectDirectoryMatchesStd(pair, 3);
}

TEST(CellDirectoryTest, MatchesStdOnKeysSpanningSixHundredDecades) {
  Rng rng(41);
  std::vector<double> keys(2000);
  for (double& v : keys) {
    const double magnitude = std::pow(10.0, 600.0 * rng.NextDouble() - 300.0);
    v = rng.NextDouble() < 0.5 ? -magnitude : magnitude;
  }
  ExpectDirectoryMatchesStd(keys, 1);
  // A span that overflows to +inf: one cell.
  const std::vector<double> extremes = {-1e308, 0.0, 1e308};
  EXPECT_EQ(CellDirectory(extremes).num_cells(), 1u);
  ExpectDirectoryMatchesStd(extremes, 2);
}

TEST(CellDirectoryTest, DegenerateKeySetsSearchOneCell) {
  ExpectDirectoryMatchesStd({}, 1);
  ExpectDirectoryMatchesStd({5.0}, 2);
  EXPECT_EQ(CellDirectory(std::vector<double>{5.0}).num_cells(), 1u);
  const std::vector<double> equal(37, 2.5);
  EXPECT_EQ(CellDirectory(equal).num_cells(), 1u);
  ExpectDirectoryMatchesStd(equal, 3);
  for (const std::vector<double>& infinite :
       {std::vector<double>{-kInf, -kInf, 0.0, 1.0, kInf},
        std::vector<double>{-kInf, 0.0, 1.0, 2.0},
        std::vector<double>{0.0, 1.0, 2.0, kInf, kInf},
        std::vector<double>{kInf}, std::vector<double>{-kInf, kInf}}) {
    EXPECT_EQ(CellDirectory(infinite).num_cells(), 1u);
    ExpectDirectoryMatchesStd(infinite, 4);
  }
  // An evenly spread set gets one cell per key.
  std::vector<double> even(50);
  for (size_t i = 0; i < even.size(); ++i) even[i] = static_cast<double>(i);
  EXPECT_EQ(CellDirectory(even).num_cells(), even.size());
}

TEST(SimdDispatchTest, ExactnessPolicyIsBitIdentity) {
  // The ψ̂ kernel's tier tests (smoothing_psi_kernel_test) compare with
  // EXPECT_EQ; this constant documents — and pins — that the bound is 0 ULP.
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
    EXPECT_NE(avx2->psi_pair_sums, nullptr);
  }
  if (const SimdOps* avx512 = SimdOpsForTier(SimdTier::kAvx512)) {
    EXPECT_EQ(avx512->width, 8);
    EXPECT_NE(avx512->psi_pair_sums, nullptr);
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
