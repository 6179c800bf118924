#include "src/density/histogram_density.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace selest {
namespace {

TEST(BinnedDensityTest, CreateValidatesInput) {
  EXPECT_FALSE(BinnedDensity::Create({0.0}, {}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {1.0, 2.0}, 3.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({1.0, 0.0}, {1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {-1.0}, 1.0).ok());
  EXPECT_FALSE(BinnedDensity::Create({0.0, 1.0}, {1.0}, 0.0).ok());
  EXPECT_TRUE(BinnedDensity::Create({0.0, 1.0}, {1.0}, 1.0).ok());
}

TEST(BinnedDensityTest, CreateRejectsNonFiniteInput) {
  // Every one of these used to build a histogram that answered NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> edges;
    std::vector<double> counts;
    double total;
  };
  const Case cases[] = {
      {{0.0, nan, 2.0}, {1.0, 1.0}, 2.0},
      {{nan, 1.0, 2.0}, {1.0, 1.0}, 2.0},
      {{0.0, 1.0, nan}, {1.0, 1.0}, 2.0},
      {{-inf, 1.0, 2.0}, {1.0, 1.0}, 2.0},
      {{0.0, 1.0, inf}, {1.0, 1.0}, 2.0},
      {{inf, inf}, {1.0}, 1.0},
      {{-1e308, 1e308}, {1.0}, 1.0},  // finite edges, infinite width
      {{0.0, 1.0, 2.0}, {nan, 1.0}, 2.0},
      {{0.0, 1.0, 2.0}, {inf, 1.0}, 2.0},
      {{0.0, 1.0, 2.0}, {1.0, -inf}, 2.0},
      {{0.0, 1.0, 2.0}, {1e308, 1e308}, 2.0},  // the mass overflows
      {{0.0, 1.0, 2.0}, {1.0, 1.0}, nan},
      {{0.0, 1.0, 2.0}, {1.0, 1.0}, inf},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(BinnedDensity::Validate(c.edges, c.counts, c.total).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BinnedDensity::Create(c.edges, c.counts, c.total).status().code(),
              StatusCode::kInvalidArgument);
  }
  const std::vector<double> edges = {0.0, 1.0, 1.0};
  const std::vector<double> counts = {1.0, 0.5};
  EXPECT_TRUE(BinnedDensity::Validate(edges, counts, 1.5).ok());
}

TEST(BinnedDensityTest, DensityOfSingleBin) {
  auto bins = BinnedDensity::Create({0.0, 4.0}, {10.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Density(2.0), 0.25);
  EXPECT_DOUBLE_EQ(bins->Density(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(bins->Density(5.0), 0.0);
}

TEST(BinnedDensityTest, SelectivityFullCoverageIsOne) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {3.0, 7.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(bins->Selectivity(-5.0, 5.0), 1.0);
}

TEST(BinnedDensityTest, SelectivityOfExactBin) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {3.0, 7.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 1.0), 0.3);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 2.0), 0.7);
}

TEST(BinnedDensityTest, SelectivityOfPartialBinIsProRata) {
  auto bins = BinnedDensity::Create({0.0, 10.0}, {10.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  // Uniform-in-bin assumption: a quarter of the bin holds a quarter of the
  // mass (formula (4)'s ψ).
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.0, 2.5), 0.25);
  EXPECT_DOUBLE_EQ(bins->Selectivity(4.0, 6.0), 0.2);
}

TEST(BinnedDensityTest, SelectivitySpanningBins) {
  auto bins =
      BinnedDensity::Create({0.0, 2.0, 4.0, 6.0}, {2.0, 4.0, 2.0}, 8.0);
  ASSERT_TRUE(bins.ok());
  // Half of bin 0 + all of bin 1 + half of bin 2 = 1 + 4 + 1 = 6 of 8.
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 5.0), 0.75);
}

TEST(BinnedDensityTest, EmptyAndInvertedRanges) {
  auto bins = BinnedDensity::Create({0.0, 1.0}, {5.0}, 5.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->Selectivity(2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(bins->Selectivity(0.7, 0.2), 0.0);
}

TEST(BinnedDensityTest, AtomBinContributesFullyWhenCovered) {
  // Middle bin has zero width at position 1.0 with count 4.
  auto bins =
      BinnedDensity::Create({0.0, 1.0, 1.0, 2.0}, {3.0, 4.0, 3.0}, 10.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_NEAR(bins->Selectivity(0.99, 1.01),
              4.0 / 10.0 + 0.01 * 3.0 / 10.0 + 0.01 * 3.0 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.0, 1.0), 0.4);
  EXPECT_DOUBLE_EQ(bins->Selectivity(1.5, 2.0), 0.15);
}

TEST(BinnedDensityTest, FromSampleCountsCorrectly) {
  const std::vector<double> sample{0.5, 1.5, 1.6, 2.5, 2.6, 2.7};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0, 3.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(bins->counts()[1], 2.0);
  EXPECT_DOUBLE_EQ(bins->counts()[2], 3.0);
  EXPECT_DOUBLE_EQ(bins->total_count(), 6.0);
}

TEST(BinnedDensityTest, FromSampleEdgeValues) {
  // Left edge goes to the first bin; interior edges go to the bin they
  // close (bins are (c_i, c_{i+1}]).
  const std::vector<double> sample{0.0, 1.0, 2.0};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 2.0);  // 0.0 and 1.0
  EXPECT_DOUBLE_EQ(bins->counts()[1], 1.0);  // 2.0
}

TEST(BinnedDensityTest, FromSampleClampsOutliersIntoEndBins) {
  const std::vector<double> sample{-5.0, 0.5, 99.0};
  auto bins = BinnedDensity::FromSample(sample, {0.0, 1.0, 2.0});
  ASSERT_TRUE(bins.ok());
  EXPECT_DOUBLE_EQ(bins->counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(bins->counts()[1], 1.0);
}

TEST(BinnedDensityTest, FromSampleRejectsEmpty) {
  EXPECT_FALSE(BinnedDensity::FromSample({}, {0.0, 1.0}).ok());
}

TEST(BinnedDensityTest, SelectivityAdditivity) {
  auto bins =
      BinnedDensity::Create({0.0, 2.0, 4.0, 6.0}, {1.0, 2.0, 3.0}, 6.0);
  ASSERT_TRUE(bins.ok());
  const double whole = bins->Selectivity(0.5, 5.5);
  const double split =
      bins->Selectivity(0.5, 3.0) + bins->Selectivity(3.0, 5.5);
  EXPECT_NEAR(whole, split, 1e-12);
}

TEST(BinnedDensityTest, StorageBytes) {
  auto bins = BinnedDensity::Create({0.0, 1.0, 2.0}, {1.0, 1.0}, 2.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_EQ(bins->StorageBytes(), sizeof(double) * 5);
}

// --- The cumulative reference form ---
//
// Seeded random histograms with 1–4,096 bins, atoms (repeated edges) at
// the front, at the back and inside, empty bins, and integer or
// non-integer counts; each answer is checked against a long-double
// evaluation of formula (4).

constexpr double kUlp = 0x1p-52;

struct RandomHistogram {
  std::vector<double> edges;
  std::vector<double> counts;
  double total = 0.0;
};

RandomHistogram MakeRandomHistogram(Rng& rng, size_t num_bins,
                                    bool integer_counts) {
  RandomHistogram h;
  h.edges.push_back(200.0 * rng.NextDouble() - 100.0);
  for (size_t i = 0; i < num_bins; ++i) {
    // Atoms at the front, at the back, and at random inside.
    const bool end_bin = i == 0 || i + 1 == num_bins;
    const bool atom = rng.NextDouble() < (end_bin ? 0.5 : 0.05);
    const double width = atom ? 0.0 : 0.01 + 10.0 * rng.NextDouble();
    h.edges.push_back(h.edges.back() + width);
    double count = 0.0;  // empty bin
    if (rng.NextDouble() >= 0.2) {
      count = integer_counts
                  ? static_cast<double>(rng.NextInt64(1, 50))
                  : 50.0 * rng.NextDouble();
    }
    h.counts.push_back(count);
  }
  if (h.counts.back() == 0.0) h.counts.back() = 1.0;  // total must be > 0
  for (double c : h.counts) h.total += c;
  return h;
}

// Formula (4) in long double: Σ n_i·ψ_i(a, b)/h_i over regular bins, plus
// every atom inside [a, b].
long double ReferenceMass(const RandomHistogram& h, double a, double b) {
  long double mass = 0.0L;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const long double lo = h.edges[i];
    const long double hi = h.edges[i + 1];
    if (hi == lo) {
      if (a <= lo && lo <= b) mass += h.counts[i];
      continue;
    }
    const long double overlap =
        std::min<long double>(b, hi) - std::max<long double>(a, lo);
    if (overlap > 0.0L) mass += h.counts[i] * (overlap / (hi - lo));
  }
  return mass;
}

// Query bounds: every edge (so every atom position) and its neighbours,
// random interior points, points outside the edges, and ±inf.
std::vector<double> ProbePoints(Rng& rng, const RandomHistogram& h) {
  const double inf = std::numeric_limits<double>::infinity();
  const double lo = h.edges.front();
  const double hi = h.edges.back();
  std::vector<double> points{-inf, inf, lo - 1.0, hi + 1.0};
  for (size_t i = 0; i < h.edges.size(); i += 1 + h.edges.size() / 64) {
    points.push_back(h.edges[i]);
    points.push_back(std::nextafter(h.edges[i], -inf));
    points.push_back(std::nextafter(h.edges[i], inf));
  }
  points.push_back(hi);
  for (int i = 0; i < 48; ++i) {
    points.push_back(lo + (hi - lo) * (1.2 * rng.NextDouble() - 0.1));
  }
  std::sort(points.begin(), points.end());
  return points;
}

size_t RandomBinCount(Rng& rng) {
  // Log-uniform over [1, 4096].
  return static_cast<size_t>(std::exp2(12.0 * rng.NextDouble()));
}

TEST(BinnedDensityCumulativeTest, MatchesLongDoubleFormulaFour) {
  Rng rng(20260518);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t bins = trial == 0 ? 1 : trial == 1 ? 4096 : RandomBinCount(rng);
    const RandomHistogram h = MakeRandomHistogram(rng, bins, trial % 2 == 0);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    const std::vector<double> points = ProbePoints(rng, h);
    const double tolerance = (2.0 * static_cast<double>(bins) + 8.0) * kUlp;
    for (int q = 0; q < 256; ++q) {
      double a = points[rng.NextUint64(points.size())];
      double b = points[rng.NextUint64(points.size())];
      if (a > b) std::swap(a, b);
      const double got = density->Selectivity(a, b);
      const long double want = ReferenceMass(h, a, b) / h.total;
      EXPECT_GE(got, 0.0);
      EXPECT_LE(got, 1.0);
      EXPECT_LE(std::fabs(static_cast<long double>(got) - want), tolerance)
          << "bins=" << bins << " a=" << a << " b=" << b;
    }
  }
}

TEST(BinnedDensityCumulativeTest, NanAndInvertedBoundsAnswerZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const RandomHistogram h =
        MakeRandomHistogram(rng, RandomBinCount(rng), trial % 2 == 0);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    for (double x : ProbePoints(rng, h)) {
      EXPECT_EQ(density->Selectivity(nan, x), 0.0);
      EXPECT_EQ(density->Selectivity(x, nan), 0.0);
      EXPECT_EQ(density->Selectivity(x, std::nextafter(x, -HUGE_VAL)), 0.0);
    }
    EXPECT_EQ(density->Selectivity(nan, nan), 0.0);
    EXPECT_EQ(density->Selectivity(h.edges.back(), h.edges.front() - 1.0),
              0.0);
  }
}

TEST(BinnedDensityCumulativeTest, BinAlignedQueryIsExactCountOverN) {
  Rng rng(11);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t bins = trial == 0 ? 4096 : RandomBinCount(rng);
    const RandomHistogram h =
        MakeRandomHistogram(rng, bins, /*integer_counts=*/true);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    for (int q = 0; q < 64; ++q) {
      size_t j = rng.NextUint64(h.edges.size());
      size_t k = rng.NextUint64(h.edges.size());
      if (j > k) std::swap(j, k);
      const double a = h.edges[j];
      const double b = h.edges[k];
      // Every bin inside [a, b], atoms at a and at b included.
      double count = 0.0;
      for (size_t i = 0; i < h.counts.size(); ++i) {
        if (h.edges[i] >= a && h.edges[i + 1] <= b) count += h.counts[i];
      }
      EXPECT_EQ(density->Selectivity(a, b), count / h.total)
          << "bins=" << bins << " a=" << a << " b=" << b;
    }
  }
}

TEST(BinnedDensityCumulativeTest, BinAlignedBoundsLandExactlyOnTheRunningSum) {
  // With any counts, a bound on an edge reads the left-to-right running sum
  // of the counts at that edge bit for bit: C⁻ at the first copy of a
  // repeated edge, C⁺ at the last. This pins the divide form of the
  // interpolation, (x − c_i)/h_i = 1 exactly at x = c_{i+1}.
  Rng rng(19);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t bins = trial == 0 ? 4096 : RandomBinCount(rng);
    const RandomHistogram h =
        MakeRandomHistogram(rng, bins, /*integer_counts=*/false);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    std::vector<double> running(h.edges.size(), 0.0);
    for (size_t i = 0; i < h.counts.size(); ++i) {
      running[i + 1] = running[i] + h.counts[i];
    }
    for (size_t j = 0; j < h.edges.size(); ++j) {
      const double a = h.edges[j];
      const size_t first = static_cast<size_t>(
          std::lower_bound(h.edges.begin(), h.edges.end(), a) -
          h.edges.begin());
      for (size_t k = j; k < h.edges.size(); k += 1 + h.edges.size() / 16) {
        const double b = h.edges[k];
        const size_t last = static_cast<size_t>(
            std::upper_bound(h.edges.begin(), h.edges.end(), b) -
            h.edges.begin()) - 1;
        EXPECT_EQ(density->Selectivity(a, b),
                  (running[last] - running[first]) / h.total)
            << "bins=" << bins << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(BinnedDensityCumulativeTest, NeverDecreasesAsTheRangeGrows) {
  Rng rng(13);
  for (int trial = 0; trial < 24; ++trial) {
    const RandomHistogram h =
        MakeRandomHistogram(rng, RandomBinCount(rng), trial % 2 == 0);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    const std::vector<double> points = ProbePoints(rng, h);  // sorted
    for (int q = 0; q < 8; ++q) {
      const size_t pivot = rng.NextUint64(points.size());
      // Growing b from a fixed a, then shrinking a below a fixed b; no
      // slack: the cumulative form is monotone in each bound.
      for (size_t k = pivot + 1; k < points.size(); ++k) {
        EXPECT_LE(density->Selectivity(points[pivot], points[k - 1]),
                  density->Selectivity(points[pivot], points[k]));
      }
      for (size_t k = pivot; k-- > 0;) {
        EXPECT_LE(density->Selectivity(points[k + 1], points[pivot]),
                  density->Selectivity(points[k], points[pivot]));
      }
    }
  }
}

TEST(BinnedDensityCumulativeTest, MassBelowMatchesLongDoubleCumulativeMass) {
  Rng rng(17);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t bins = trial == 0 ? 4096 : RandomBinCount(rng);
    const RandomHistogram h = MakeRandomHistogram(rng, bins, trial % 2 == 0);
    auto density = BinnedDensity::Create(h.edges, h.counts, h.total);
    ASSERT_TRUE(density.ok());
    const double tolerance =
        (static_cast<double>(bins) + 4.0) * kUlp * h.total;
    for (double x : ProbePoints(rng, h)) {
      // Everything at or below x: atoms at x included.
      const long double want = ReferenceMass(h, -HUGE_VAL, x);
      EXPECT_LE(std::fabs(static_cast<long double>(density->MassBelow(x)) -
                          want),
                tolerance)
          << "bins=" << bins << " x=" << x;
    }
  }
}

TEST(BinnedDensityCumulativeTest, AtomAtTheLowerBoundCounts) {
  // A lone atom at a: C⁻(a) must exclude it, so [a, b] keeps its mass.
  auto bins = BinnedDensity::Create({0.0, 1.0, 1.0, 1.0, 2.0},
                                    {2.0, 3.0, 5.0, 2.0}, 12.0);
  ASSERT_TRUE(bins.ok());
  EXPECT_EQ(bins->Selectivity(1.0, 2.0), 10.0 / 12.0);
  EXPECT_EQ(bins->Selectivity(1.0, 1.0), 8.0 / 12.0);
  EXPECT_EQ(bins->Selectivity(0.0, 1.0), 10.0 / 12.0);
  EXPECT_EQ(bins->MassBelow(1.0), 10.0);
  EXPECT_LT(bins->MassBelow(std::nextafter(1.0, 0.0)), 2.0);
}

}  // namespace
}  // namespace selest
