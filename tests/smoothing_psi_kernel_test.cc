// The ψ̂ pair-sum kernel behind the direct plug-in rule (DESIGN.md §2,
// §12): every SIMD tier bit-equals the scalar reference, the kernel's exp
// stays within 2 ULP of expl, ψ̂ stays within 1e-12 of a long-double
// double sum on the headline samples, and the h-DPI2 bin count of every
// Table 2 file is pinned.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"
#include "src/eval/paper_data.h"
#include "src/exec/parallel_for.h"
#include "src/exec/thread_pool.h"
#include "src/smoothing/direct_plug_in.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/stats.h"

namespace selest {
namespace {

double PsiOnTier(SimdTier tier, std::span<const double> x, int s, double g) {
  const ScopedSimdTier scoped(tier);
  return EstimatePsiFunctional(x, s, g);
}

// Every supported vector tier against the scalar reference, bit for bit,
// for every s.
void ExpectTiersMatchScalar(std::span<const double> x, double g,
                            const std::string& label) {
  for (int s : {2, 4, 6, 8}) {
    const double reference = PsiOnTier(SimdTier::kScalar, x, s, g);
    ASSERT_FALSE(std::isnan(reference)) << label << " s=" << s;
    for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
      if (!SimdTierSupported(tier)) continue;
      const double got = PsiOnTier(tier, x, s, g);
      EXPECT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(reference))
          << label << " s=" << s << " tier=" << SimdTierName(tier)
          << ": " << got << " vs " << reference;
    }
  }
}

TEST(PsiKernelTest, EveryTierBitEqualsScalarReference) {
  // One buffer; spans start at offsets 0, 1 and 3, so the vector loads
  // run misaligned and every row tail length 0..7 occurs.
  Rng rng(11);
  std::vector<double> buffer(2003);
  for (double& v : buffer) v = 50.0 + 10.0 * rng.NextGaussian();
  for (size_t n : {1, 2, 7, 8, 9, 63, 2000}) {
    for (size_t offset : {0, 1, 3}) {
      const std::span<const double> x(buffer.data() + offset, n);
      // g = 0.05 sends most pairs below the exp floor, g = 2 almost none.
      for (double g : {0.05, 2.0}) {
        ExpectTiersMatchScalar(x, g,
                               "n=" + std::to_string(n) + " offset=" +
                                   std::to_string(offset) +
                                   " g=" + std::to_string(g));
      }
    }
  }
}

TEST(PsiKernelTest, EveryTierBitEqualsScalarOnAllEqualData) {
  const std::vector<double> x(100, 7.0);
  ExpectTiersMatchScalar(x, 0.5, "all-equal");
  // Every pair has z = 0: ψ̂ = P_s(0)·φ(0)/g^(s+1) exactly as for n = 1.
  const double single[] = {7.0};
  for (int s : {2, 4, 6, 8}) {
    EXPECT_DOUBLE_EQ(EstimatePsiFunctional(x, s, 0.5),
                     EstimatePsiFunctional(single, s, 0.5))
        << "s=" << s;
  }
}

TEST(PsiKernelTest, EveryTierBitEqualsScalarAcrossTheExpFloor) {
  // Spacing 0.5 at g = 1: pair distances 0.5 .. 80 put −u/2 on both sides
  // of kExpFloor (distance √1416 ≈ 37.6).
  std::vector<double> x;
  for (int i = 0; i <= 160; ++i) x.push_back(0.5 * i);
  ExpectTiersMatchScalar(x, 1.0, "straddling the floor");
  // Two far clusters: every cross pair lies far below the floor, so ψ̂ is
  // the two clusters' own pair sums only.
  std::vector<double> clusters;
  for (int i = 0; i < 40; ++i) clusters.push_back(0.1 * i);
  for (int i = 0; i < 40; ++i) clusters.push_back(1.0e6 + 0.1 * i);
  ExpectTiersMatchScalar(clusters, 1.0, "two far clusters");
  const std::span<const double> one(clusters.data(), 40);
  for (int s : {2, 4, 6, 8}) {
    // Each cluster alone has the same ψ̂ (translation invariance, same
    // spacing); together the pair and diagonal sums double while n² grows
    // four-fold, so ψ̂ halves. The cluster offset makes the two clusters'
    // differences round differently, hence NEAR, not EQ.
    const double alone = EstimatePsiFunctional(one, s, 1.0);
    EXPECT_NEAR(EstimatePsiFunctional(clusters, s, 1.0), 0.5 * alone,
                1e-9 * std::fabs(alone))
        << "s=" << s;
  }
}

// |got − expl(t)| in units of the last place of the exact value.
double UlpError(double t) {
  const long double want = std::exp(static_cast<long double>(t));
  const double got = ExpNonPositive(t);
  const double ulp =
      std::ldexp(1.0, std::ilogb(static_cast<double>(want)) - 52);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - want) /
                             ulp);
}

TEST(PsiKernelTest, ExpWithinTwoUlpOfExplAboveTheFloor) {
  double worst = 0.0;
  constexpr int kSteps = 1 << 20;
  for (int i = 0; i <= kSteps; ++i) {
    worst = std::max(worst, UlpError(kExpFloor * i / kSteps));
  }
  // The reduction's rounding boundaries t = −(k + ½)·ln 2, where r is
  // largest, and their neighbours.
  for (int k = 0; k <= 1020; ++k) {
    const double mid = -(k + 0.5) * std::numbers::ln2;
    for (double t : {std::nextafter(mid, -1e9), mid,
                     std::nextafter(mid, 0.0)}) {
      worst = std::max(worst, UlpError(t));
    }
  }
  // Random points across the range and near zero.
  Rng rng(5);
  for (int i = 0; i < (1 << 18); ++i) {
    worst = std::max(worst, UlpError(kExpFloor * rng.NextDouble()));
    worst = std::max(worst, UlpError(-1e-3 * rng.NextDouble()));
  }
  EXPECT_LE(worst, 2.0);
  EXPECT_EQ(ExpNonPositive(0.0), 1.0);
  EXPECT_EQ(ExpNonPositive(-0.0), 1.0);
  EXPECT_EQ(ExpNonPositive(-1e-300), 1.0);
  EXPECT_GT(ExpNonPositive(kExpFloor), 0.0);
}

TEST(PsiKernelTest, ExpIsExactlyZeroBelowTheFloor) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {std::nextafter(kExpFloor, -inf), kExpFloor - 0.5, -745.0,
                   -1.0e4, -1.0e300, -inf}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ExpNonPositive(t)), 0u) << t;
  }
}

// The textbook double sum in long double: (1/n²) Σ_i Σ_j φ_g^(s)(x_i − x_j)
// with expl, symmetric pairs counted twice.
double LongDoublePsi(std::span<const double> x, int s, double g) {
  const size_t n = x.size();
  const long double gl = g;
  auto hermite = [s](long double u) -> long double {
    switch (s) {
      case 2:
        return u - 1;
      case 4:
        return u * u - 6 * u + 3;
      case 6:
        return u * u * u - 15 * u * u + 45 * u - 15;
      default:
        return u * u * u * u - 28 * u * u * u + 210 * u * u - 420 * u + 105;
    }
  };
  long double pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const long double z =
          (static_cast<long double>(x[i]) - static_cast<long double>(x[j])) /
          gl;
      pairs += hermite(z * z) * std::exp(-z * z / 2);
    }
  }
  const long double sqrt_2pi =
      std::sqrt(2 * static_cast<long double>(std::numbers::pi_v<long double>));
  const long double sum = (n * hermite(0) + 2 * pairs) / sqrt_2pi;
  return static_cast<double>(sum / (static_cast<long double>(n) * n *
                                    std::pow(gl, s + 1)));
}

TEST(PsiKernelTest, WithinOneE12OfALongDoubleSumOnHeadlineSamples) {
  // Every ψ̂ the h-DPI2 rules evaluate on the headline samples (Fig. 12
  // protocol, seed 17): the bandwidth ladder (s = 6, 4) and the bin-width
  // ladder (s = 4, 2), each at its own pilot bandwidth.
  struct Case {
    std::string file;
    std::vector<double> sample;
    int s = 0;
    double g = 0.0;
    double psi = 0.0;
    double reference = 0.0;
  };
  std::vector<Case> cases;
  for (const std::string& name : HeadlineFileNames()) {
    auto data = MakePaperDataset(name);
    ASSERT_TRUE(data.ok()) << name;
    ProtocolConfig protocol;
    protocol.seed = 17;
    const ExperimentSetup setup = MakeSetup(*data, protocol);
    const size_t n = setup.sample.size();
    const double sigma = NormalScaleSigma(setup.sample);
    for (int top : {6, 4}) {  // highest estimated s of each ladder
      double psi_next = NormalScalePsi(top + 2, sigma);
      for (int s = top; s >= top - 2; s -= 2) {
        // Pilot bandwidth g = (−2 φ^(s)(0) / (ψ_{s+2} n))^(1/(s+3)).
        const double phi0 = kPsiHermite[s / 2 - 1][s / 2 - 1] /
                            std::sqrt(2.0 * std::numbers::pi);
        const double g = std::pow(-2.0 * phi0 / (psi_next * n), 1.0 / (s + 3));
        ASSERT_GT(g, 0.0) << name << " s=" << s;
        Case c{name, setup.sample, s, g, 0.0, 0.0};
        c.psi = EstimatePsiFunctional(c.sample, s, g);
        psi_next = c.psi;
        cases.push_back(std::move(c));
      }
    }
  }
  ParallelFor(&ThreadPool::Default(), cases.size(), cases.size(),
              [&cases](size_t begin, size_t end, size_t) {
                for (size_t i = begin; i < end; ++i) {
                  cases[i].reference =
                      LongDoublePsi(cases[i].sample, cases[i].s, cases[i].g);
                }
              });
  for (const Case& c : cases) {
    EXPECT_LE(std::fabs(c.psi - c.reference), 1e-12 * std::fabs(c.reference))
        << c.file << " s=" << c.s << " g=" << c.g << ": " << c.psi << " vs "
        << c.reference;
  }
}

TEST(PsiKernelTest, Table2DpiBinCountsArePinned) {
  // h-DPI2 bin counts of every Table 2 file's 2,000-record sample (Fig. 12
  // protocol, seed 17), recorded from the per-pair std::exp loop this
  // kernel replaced. The kernel moves ψ̂ by ~1e-13 relative, far inside
  // every count's rounding margin.
  struct Golden {
    const char* file;
    int bins;
  };
  const Golden goldens[] = {
      {"u(15)", 16},   {"u(20)", 17},   {"n(10)", 29},   {"n(15)", 29},
      {"n(20)", 30},   {"e(15)", 79},   {"e(20)", 75},   {"arap1", 39},
      {"arap2", 37},   {"rr1(12)", 37}, {"rr1(22)", 37}, {"rr2(12)", 33},
      {"rr2(22)", 33}, {"iw", 58},
  };
  ASSERT_EQ(std::size(goldens), PaperFileNames().size());
  for (const Golden& golden : goldens) {
    auto data = MakePaperDataset(golden.file);
    ASSERT_TRUE(data.ok()) << golden.file;
    ProtocolConfig protocol;
    protocol.seed = 17;
    const ExperimentSetup setup = MakeSetup(*data, protocol);
    EXPECT_EQ(DirectPlugInNumBins(setup.sample, setup.domain(), 2),
              golden.bins)
        << golden.file;
  }
}

}  // namespace
}  // namespace selest
