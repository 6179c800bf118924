#include "src/est/average_shifted_histogram.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/est/equi_width_histogram.h"
#include "src/est/estimator_snapshot.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace selest {
namespace {

const Domain kDomain = ContinuousDomain(0.0, 10.0);

TEST(AshTest, RejectsBadInput) {
  const std::vector<double> sample{1.0};
  EXPECT_FALSE(AverageShiftedHistogram::Create(sample, kDomain, 0, 10).ok());
  EXPECT_FALSE(AverageShiftedHistogram::Create(sample, kDomain, 5, 0).ok());
  EXPECT_FALSE(AverageShiftedHistogram::Create({}, kDomain, 5, 10).ok());
}

TEST(AshTest, OneShiftEqualsPlainEquiWidth) {
  Rng rng(1);
  std::vector<double> sample(200);
  for (double& x : sample) x = 10.0 * rng.NextDouble();
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 8, 1);
  auto ewh = EquiWidthHistogram::Create(sample, kDomain, 8);
  ASSERT_TRUE(ash.ok());
  ASSERT_TRUE(ewh.ok());
  for (double a = 0.0; a < 9.0; a += 0.7) {
    EXPECT_DOUBLE_EQ(ash->EstimateSelectivity(a, a + 1.0),
                     ewh->EstimateSelectivity(a, a + 1.0));
  }
}

TEST(AshTest, FullDomainSelectivityIsOne) {
  Rng rng(2);
  std::vector<double> sample(300);
  for (double& x : sample) x = 10.0 * rng.NextDouble();
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 10, 10);
  ASSERT_TRUE(ash.ok());
  EXPECT_NEAR(ash->EstimateSelectivity(0.0, 10.0), 1.0, 1e-12);
}

TEST(AshTest, SmoothsBinBoundaryJumps) {
  // A point mass near a bin boundary: the plain histogram's estimate for a
  // query ending just past the boundary jumps; ASH transitions gradually.
  std::vector<double> sample(100, 5.05);
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 10, 10);
  auto ewh = EquiWidthHistogram::Create(sample, kDomain, 10);
  ASSERT_TRUE(ash.ok());
  ASSERT_TRUE(ewh.ok());
  // Plain EWH spreads the mass uniformly over (5, 6]; a query covering
  // [0, 5.5] gets exactly half.
  EXPECT_DOUBLE_EQ(ewh->EstimateSelectivity(0.0, 5.5), 0.5);
  // ASH concentrates the mass nearer its true location (bins containing
  // 5.05 across shifts all start before 5.05), so the same query captures
  // more of it.
  EXPECT_GT(ash->EstimateSelectivity(0.0, 5.5), 0.6);
}

TEST(AshTest, EstimatesUniformDataWell) {
  Rng rng(3);
  std::vector<double> sample(2000);
  for (double& x : sample) x = 10.0 * rng.NextDouble();
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 20, 10);
  ASSERT_TRUE(ash.ok());
  EXPECT_NEAR(ash->EstimateSelectivity(2.0, 4.0), 0.2, 0.03);
}

TEST(AshTest, AccessorsAndName) {
  const std::vector<double> sample{1.0};
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 6, 4);
  ASSERT_TRUE(ash.ok());
  EXPECT_EQ(ash->num_bins(), 6);
  EXPECT_EQ(ash->num_shifts(), 4);
  EXPECT_EQ(ash->name(), "ash(6x4)");
}

TEST(AshTest, EstimateWithinUnitInterval) {
  Rng rng(4);
  std::vector<double> sample(100);
  for (double& x : sample) x = 10.0 * rng.NextDouble();
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 12, 10);
  ASSERT_TRUE(ash.ok());
  for (double a = -2.0; a < 12.0; a += 0.5) {
    const double s = ash->EstimateSelectivity(a, a + 1.5);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// --- The union table against the ten lookups it replaced ---

// The shifted equi-width histograms ASH averages, built the way Create
// shifts them, answering as the average of their own lookups.
struct ShiftedLookups {
  std::vector<EquiWidthHistogram> shifts;
  double Estimate(double a, double b) const {
    double sum = 0.0;
    for (const EquiWidthHistogram& shift : shifts) {
      sum += shift.EstimateSelectivity(a, b);
    }
    return sum / static_cast<double>(shifts.size());
  }
};

ShiftedLookups MakeShiftedLookups(const std::vector<double>& sample,
                                  const Domain& domain, int bins,
                                  int num_shifts) {
  ShiftedLookups lookups;
  const double width = domain.width() / bins;
  for (int i = 0; i < num_shifts; ++i) {
    lookups.shifts.push_back(
        EquiWidthHistogram::Create(sample, domain, bins,
                                   width * i / num_shifts)
            .value());
  }
  return lookups;
}

// Samples over a few shapes: uniform, clustered, and heavy point masses.
std::vector<double> MakeAshSample(Rng& rng, const Domain& domain,
                                  size_t n, int shape) {
  std::vector<double> sample(n);
  for (double& x : sample) {
    const double u = rng.NextDouble();
    if (shape == 0) {
      x = domain.lo + domain.width() * u;
    } else if (shape == 1) {
      x = domain.Clamp(domain.lo + domain.width() *
                                       (0.3 + 0.08 * rng.NextGaussian()));
    } else {
      x = domain.lo + domain.width() * std::floor(u * 7.0) / 7.0;
    }
  }
  return sample;
}

TEST(AshTest, UnionTableMatchesTheAverageOfTheShiftedLookups) {
  Rng rng(20261020);
  const Domain domains[] = {ContinuousDomain(0.0, 10.0),
                            ContinuousDomain(-3.0e5, 1.0e6),
                            ContinuousDomain(1e-3, 1e-3 + 1e-9)};
  for (int trial = 0; trial < 60; ++trial) {
    const int num_shifts = trial % 6 == 0   ? 1
                           : trial % 6 == 1 ? 12
                                            : static_cast<int>(
                                                  rng.NextInt64(2, 11));
    const int bins = static_cast<int>(rng.NextInt64(1, 300));
    const Domain& domain = domains[trial % 3];
    const std::vector<double> sample = MakeAshSample(
        rng, domain, static_cast<size_t>(rng.NextInt64(1, 3000)), trial % 3);
    auto ash = AverageShiftedHistogram::Create(sample, domain, bins,
                                               num_shifts);
    ASSERT_TRUE(ash.ok());
    const ShiftedLookups reference =
        MakeShiftedLookups(sample, domain, bins, num_shifts);
    // Random ranges, ranges ending on shifted edges, and ranges past both
    // ends of the domain.
    std::vector<double> points;
    for (int i = 0; i < 300; ++i) {
      points.push_back(domain.lo +
                       domain.width() * (1.2 * rng.NextDouble() - 0.1));
    }
    for (const EquiWidthHistogram& shift : reference.shifts) {
      const std::vector<double>& edges = shift.bins().edges();
      for (size_t i = 0; i < edges.size(); i += 1 + edges.size() / 16) {
        points.push_back(edges[i]);
      }
    }
    std::sort(points.begin(), points.end());
    for (int q = 0; q < 400; ++q) {
      double a = points[rng.NextUint64(points.size())];
      double b = points[rng.NextUint64(points.size())];
      if (a > b) std::swap(a, b);
      if (num_shifts == 1) {
        // One shift's table is that shift's own: bit for bit.
        EXPECT_EQ(ash->EstimateSelectivity(a, b), reference.Estimate(a, b))
            << ash->name() << " a=" << a << " b=" << b;
      } else {
        EXPECT_NEAR(ash->EstimateSelectivity(a, b), reference.Estimate(a, b),
                    1e-14)
            << ash->name() << " a=" << a << " b=" << b;
      }
    }
    // Non-decreasing in b, with no slack: the union's cumulative mass is
    // monotone.
    const double a = points[rng.NextUint64(points.size())];
    double last = 0.0;
    for (const double b : points) {
      const double s = ash->EstimateSelectivity(a, b);
      EXPECT_GE(s, last) << ash->name() << " a=" << a << " b=" << b;
      last = s;
    }
  }
}

TEST(AshTest, RoundingDoesNotBuildUpAlongTheSweep) {
  // 8 shifts of 1,000 bins: about 8,000 union sub-bins. Running sums
  // carried along the whole sweep drift to ~5e-14 here; recomputing them
  // from the shifts every K sub-bins keeps the answers within 1e-15.
  Rng rng(12);
  const Domain domain = ContinuousDomain(0.0, 10.0);
  const std::vector<double> sample = MakeAshSample(rng, domain, 5000, 0);
  auto ash = AverageShiftedHistogram::Create(sample, domain, 1000, 8);
  ASSERT_TRUE(ash.ok());
  const ShiftedLookups reference = MakeShiftedLookups(sample, domain, 1000, 8);
  for (int q = 0; q < 4000; ++q) {
    double a = domain.width() * rng.NextDouble();
    double b = domain.width() * rng.NextDouble();
    if (a > b) std::swap(a, b);
    EXPECT_NEAR(ash->EstimateSelectivity(a, b), reference.Estimate(a, b),
                1e-14)
        << "a=" << a << " b=" << b;
  }
}

TEST(AshTest, ShiftsBelowTheEdgeResolutionLeaveAtoms) {
  // At 1e15 the doubles are 0.125 apart, so shifts of a 0.64 bin width
  // round onto few distinct origins and the clamped edges repeat: the
  // shifted histograms hold zero-width bins, which the union keeps as
  // atoms.
  Rng rng(5);
  const Domain domain = ContinuousDomain(1e15, 1e15 + 64.0);
  const std::vector<double> sample = MakeAshSample(rng, domain, 500, 2);
  for (int num_shifts : {3, 10, 12}) {
    auto ash = AverageShiftedHistogram::Create(sample, domain, 100,
                                               num_shifts);
    ASSERT_TRUE(ash.ok());
    const ShiftedLookups reference =
        MakeShiftedLookups(sample, domain, 100, num_shifts);
    for (const EquiWidthHistogram& shift : reference.shifts) {
      for (const double a : shift.bins().edges()) {
        for (const double b : {a, a + 0.125, a + 10.0, domain.hi}) {
          EXPECT_NEAR(ash->EstimateSelectivity(a, b),
                      reference.Estimate(a, b), 1e-14)
              << num_shifts << " shifts, a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(AshTest, LoadedShiftsOfAnyShapeAnswerTheirAverage) {
  // A snapshot may hold shifts no Create would build: uneven and
  // zero-width bins, and ranges that start, end or lie apart anywhere.
  // The union table must still answer the average of their lookups.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_shifts = static_cast<int>(rng.NextInt64(2, 12));
    std::vector<std::vector<double>> edges(num_shifts);
    std::vector<std::vector<double>> counts(num_shifts);
    double total = 1.0;
    for (int k = 0; k < num_shifts; ++k) {
      edges[k].push_back(std::floor(100.0 * rng.NextDouble()) - 50.0);
      double mass = 0.0;
      for (int64_t i = rng.NextInt64(1, 40); i > 0; --i) {
        const bool atom = rng.NextDouble() < 0.2;
        const double width = 0.25 + std::floor(8.0 * rng.NextDouble());
        edges[k].push_back(edges[k].back() + (atom ? 0.0 : width));
        counts[k].push_back(static_cast<double>(rng.NextInt64(0, 50)));
        mass += counts[k].back();
      }
      total = std::max(total, mass);
    }
    ByteWriter writer;
    writer.WriteU32(7);
    writer.WriteU32(static_cast<uint32_t>(num_shifts));
    for (int k = 0; k < num_shifts; ++k) {
      writer.WriteDoubleVector(edges[k]);
      writer.WriteDoubleVector(counts[k]);
      writer.WriteDouble(total);
      writer.WriteDouble(1.0);
    }
    ByteReader reader(writer.TakeBytes());
    auto ash = AverageShiftedHistogram::DeserializeState(reader);
    ASSERT_TRUE(ash.ok()) << ash.status().ToString();
    ShiftedLookups reference;
    std::vector<double> points = {-100.0, 100.0};
    for (int k = 0; k < num_shifts; ++k) {
      ByteWriter shift;
      shift.WriteDoubleVector(edges[k]);
      shift.WriteDoubleVector(counts[k]);
      shift.WriteDouble(total);
      shift.WriteDouble(1.0);
      ByteReader shift_reader(shift.TakeBytes());
      reference.shifts.push_back(
          EquiWidthHistogram::DeserializeState(shift_reader).value());
      for (const double e : edges[k]) {
        points.push_back(e);
        points.push_back(e + 0.1);
      }
    }
    std::sort(points.begin(), points.end());
    for (const double a : points) {
      double last = 0.0;
      for (const double b : points) {
        if (b < a) continue;
        const double s = ash->EstimateSelectivity(a, b);
        EXPECT_NEAR(s, reference.Estimate(a, b), 1e-14)
            << "trial " << trial << " a=" << a << " b=" << b;
        EXPECT_GE(s, last) << "trial " << trial << " a=" << a << " b=" << b;
        last = s;
      }
    }
  }
}

TEST(AshTest, SnapshotRoundTripAnswersBitIdentically) {
  Rng rng(6);
  const Domain domain = ContinuousDomain(0.0, 1000.0);
  const std::vector<double> sample = MakeAshSample(rng, domain, 2000, 1);
  for (int num_shifts : {1, 10, 12}) {
    auto ash = AverageShiftedHistogram::Create(sample, domain, 37,
                                               num_shifts);
    ASSERT_TRUE(ash.ok());
    auto bytes = SnapshotEstimator(ash.value());
    ASSERT_TRUE(bytes.ok());
    auto loaded = LoadEstimatorSnapshot(bytes.value());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value()->name(), ash->name());
    EXPECT_EQ(loaded.value()->StorageBytes(), ash->StorageBytes());
    EXPECT_EQ(SnapshotEstimator(*loaded.value()).value(), bytes.value());
    for (int q = 0; q < 500; ++q) {
      double a = domain.lo + domain.width() * (1.2 * rng.NextDouble() - 0.1);
      double b = domain.lo + domain.width() * (1.2 * rng.NextDouble() - 0.1);
      if (a > b) std::swap(a, b);
      EXPECT_EQ(loaded.value()->EstimateSelectivity(a, b),
                ash->EstimateSelectivity(a, b));
    }
  }
}

TEST(AshTest, SnapshotStateIsTheShiftedHistogramsState) {
  // ASH writes each shift in EquiWidthHistogram's layout itself; its state
  // must stay byte for byte the K histograms' own.
  Rng rng(7);
  const std::vector<double> sample = MakeAshSample(rng, kDomain, 400, 1);
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 11, 10);
  ASSERT_TRUE(ash.ok());
  ByteWriter got;
  ASSERT_TRUE(ash->SerializeState(got).ok());
  ByteWriter want;
  want.WriteU32(11);
  want.WriteU32(10);
  for (const EquiWidthHistogram& shift :
       MakeShiftedLookups(sample, kDomain, 11, 10).shifts) {
    ASSERT_TRUE(shift.SerializeState(want).ok());
  }
  EXPECT_EQ(got.bytes(), want.bytes());
}

TEST(AshTest, SnapshotWhoseShiftsDisagreeOnTheSampleSizeIsRejected) {
  // Every shift buckets the same sample, so a state whose shifts hold
  // different totals is damage, not an ASH.
  Rng rng(9);
  const std::vector<double> sample = MakeAshSample(rng, kDomain, 200, 0);
  const std::vector<double> half(sample.begin(), sample.begin() + 100);
  ByteWriter writer;
  writer.WriteU32(5);
  writer.WriteU32(2);
  ASSERT_TRUE(EquiWidthHistogram::Create(sample, kDomain, 5)
                  .value()
                  .SerializeState(writer)
                  .ok());
  ASSERT_TRUE(EquiWidthHistogram::Create(half, kDomain, 5, 1.0)
                  .value()
                  .SerializeState(writer)
                  .ok());
  ByteReader reader(writer.TakeBytes());
  EXPECT_EQ(AverageShiftedHistogram::DeserializeState(reader).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AshTest, StorageCountsEveryShiftedHistogram) {
  Rng rng(8);
  const std::vector<double> sample = MakeAshSample(rng, kDomain, 300, 0);
  auto ash = AverageShiftedHistogram::Create(sample, kDomain, 9, 4);
  ASSERT_TRUE(ash.ok());
  const ShiftedLookups reference = MakeShiftedLookups(sample, kDomain, 9, 4);
  size_t bytes = 0;
  for (const EquiWidthHistogram& shift : reference.shifts) {
    bytes += shift.StorageBytes();
  }
  EXPECT_EQ(ash->StorageBytes(), bytes);
}

}  // namespace
}  // namespace selest
