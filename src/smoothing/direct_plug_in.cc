#include "src/smoothing/direct_plug_in.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "src/smoothing/normal_scale.h"
#include "src/util/check.h"
#include "src/util/simd.h"
#include "src/util/stats.h"

namespace selest {
namespace {

constexpr double kSqrt2Pi = 2.506628274631000502;

// P_s(0), the last Horner coefficient.
double HermiteAtZero(int s) { return kPsiHermite[s / 2 - 1][s / 2 - 1]; }

// phi^(s)(0) = P_s(0) · phi(0); the even-s Hermite form carries the sign
// of the derivative.
double GaussianDerivativeAtZero(int s) {
  return HermiteAtZero(s) * (1.0 / kSqrt2Pi);
}

// The pair sum's exp (contract in util/simd.h), inline in the pair loop;
// ExpNonPositive exports it.
inline double ExpReference(double t) {
  const double shifted = t * kExpLog2e + kExpShifter;
  const double k = shifted - kExpShifter;
  const double r = (t - k * kExpLn2Hi) - k * kExpLn2Lo;
  const double* q = kExpTaylor;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double b0 = (q[0] + q[1] * r) + (q[2] + q[3] * r) * r2;
  const double b1 = (q[4] + q[5] * r) + (q[6] + q[7] * r) * r2;
  const double b2 = (q[8] + q[9] * r) + (q[10] + q[11] * r) * r2;
  const double tail = (b0 + b1 * r4) + b2 * (r4 * r4);
  const double p = 1.0 + (r + r2 * tail);
  // The shifter's low mantissa bits hold k; unsigned arithmetic keeps the
  // discarded below-floor results free of overflow.
  const uint64_t scale = (std::bit_cast<uint64_t>(shifted) + 1023) << 52;
  return t < kExpFloor ? 0.0 : p * std::bit_cast<double>(scale);
}

template <int kDegree>
double PairTerm(double xi, double xj, double inv_g) {
  const double* c = kPsiHermite[kDegree - 1];
  const double z = (xi - xj) * inv_g;
  const double u = z * z;
  double p = u + c[0];
  for (int k = 1; k < kDegree; ++k) p = p * u + c[k];
  return p * ExpReference(-0.5 * u);
}

// The scalar reference of the pair sum (contract in util/simd.h): every
// vector tier's psi_pair_sums replays it lane for lane.
template <int kDegree>
void PsiPairSums(std::span<const double> x, double inv_g,
                 double lanes[kPsiLanes]) {
  const size_t n = x.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t l = 0; l < kPsiLanes; ++l) {
      double sum = lanes[l];
      for (size_t j = i + 1 + l; j < n; j += kPsiLanes) {
        sum += PairTerm<kDegree>(x[i], x[j], inv_g);
      }
      lanes[l] = sum;
    }
  }
}

double Factorial(int k) {
  double result = 1.0;
  for (int i = 2; i <= k; ++i) result *= i;
  return result;
}

// Pilot bandwidth for estimating psi_s, given psi_{s+2} (Wand & Jones):
//   g = ( −2 phi^(s)(0) / (psi_{s+2} · n) )^(1/(s+3))
double PilotBandwidth(int s, double psi_next, size_t n) {
  const double numerator = -2.0 * GaussianDerivativeAtZero(s);
  const double value = numerator / (psi_next * static_cast<double>(n));
  if (!(value > 0.0)) return 0.0;  // degenerate; caller falls back
  return std::pow(value, 1.0 / (s + 3.0));
}

}  // namespace

double ExpNonPositive(double t) { return ExpReference(t); }

double EstimatePsiFunctional(std::span<const double> sample, int s, double g) {
  SELEST_CHECK(s == 2 || s == 4 || s == 6 || s == 8);
  SELEST_CHECK_GT(g, 0.0);
  SELEST_CHECK(!sample.empty());
  const size_t n = sample.size();
  const double inv_g = 1.0 / g;
  double lanes[kPsiLanes] = {};
  if (const SimdOps* ops = ActiveSimdOps()) {
    ops->psi_pair_sums(sample.data(), static_cast<int64_t>(n), inv_g, s,
                       lanes);
  } else {
    switch (s) {
      case 2:
        PsiPairSums<1>(sample, inv_g, lanes);
        break;
      case 4:
        PsiPairSums<2>(sample, inv_g, lanes);
        break;
      case 6:
        PsiPairSums<3>(sample, inv_g, lanes);
        break;
      default:
        PsiPairSums<4>(sample, inv_g, lanes);
        break;
    }
  }
  const double pairs = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                       ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  // Diagonal terms (i == j) once, off-diagonal pairs twice via symmetry.
  const double sum =
      (static_cast<double>(n) * HermiteAtZero(s) + 2.0 * pairs) / kSqrt2Pi;
  const double scale = std::pow(g, s + 1.0);
  return sum / (static_cast<double>(n) * static_cast<double>(n) * scale);
}

double NormalScalePsi(int s, double sigma) {
  SELEST_CHECK(s % 2 == 0);
  SELEST_CHECK_GT(sigma, 0.0);
  const int half = s / 2;
  const double sign = half % 2 == 0 ? 1.0 : -1.0;
  return sign * Factorial(s) /
         (std::pow(2.0 * sigma, s + 1.0) * Factorial(half) *
          std::sqrt(std::numbers::pi));
}

namespace {

// Shared validation for the Try* entry points.
Status ValidatePlugInInput(std::span<const double> sample, int stages) {
  if (sample.empty()) {
    return InvalidArgumentError("direct plug-in rule needs a non-empty sample");
  }
  if (stages < 1 || stages > 3) {
    return InvalidArgumentError("direct plug-in stages must be in [1, 3]");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<double> TryDirectPlugInBandwidth(std::span<const double> sample,
                                          const Domain& domain,
                                          const Kernel& kernel, int stages) {
  SELEST_RETURN_IF_ERROR(ValidatePlugInInput(sample, stages));
  return DirectPlugInBandwidth(sample, domain, kernel, stages);
}

double DirectPlugInBandwidth(std::span<const double> sample,
                             const Domain& domain, const Kernel& kernel,
                             int stages) {
  SELEST_CHECK_GE(stages, 1);
  SELEST_CHECK_LE(stages, 3);
  SELEST_CHECK(!sample.empty());
  const double fallback = NormalScaleBandwidth(sample, domain, kernel);
  const double sigma = NormalScaleSigma(sample);
  if (sigma <= 0.0) return fallback;
  const size_t n = sample.size();

  // Stage ladder: psi_{2·stages+4} from the normal scale, then estimate
  // psi_{2j+2} for j = stages..1, ending at psi_4 = R(f'').
  double psi_next = NormalScalePsi(2 * stages + 4, sigma);
  for (int j = stages; j >= 1; --j) {
    const int s = 2 * j + 2;
    const double g = PilotBandwidth(s, psi_next, n);
    if (g <= 0.0) return fallback;
    psi_next = EstimatePsiFunctional(sample, s, g);
  }
  const double psi4 = psi_next;  // R(f'')
  if (!(psi4 > 0.0)) return fallback;
  const double r_k = kernel.squared_l2_norm();
  const double k2 = kernel.second_moment();
  return std::pow(r_k / (k2 * k2 * psi4 * static_cast<double>(n)), 0.2);
}

StatusOr<double> TryDirectPlugInBinWidth(std::span<const double> sample,
                                         const Domain& domain, int stages) {
  SELEST_RETURN_IF_ERROR(ValidatePlugInInput(sample, stages));
  return DirectPlugInBinWidth(sample, domain, stages);
}

double DirectPlugInBinWidth(std::span<const double> sample,
                            const Domain& domain, int stages) {
  SELEST_CHECK_GE(stages, 1);
  SELEST_CHECK_LE(stages, 3);
  SELEST_CHECK(!sample.empty());
  const double fallback = NormalScaleBinWidth(sample, domain);
  const double sigma = NormalScaleSigma(sample);
  if (sigma <= 0.0) return fallback;
  const size_t n = sample.size();

  // Ladder down to psi_2 = −R(f').
  double psi_next = NormalScalePsi(2 * stages + 2, sigma);
  for (int j = stages; j >= 1; --j) {
    const int s = 2 * j;
    const double g = PilotBandwidth(s, psi_next, n);
    if (g <= 0.0) return fallback;
    psi_next = EstimatePsiFunctional(sample, s, g);
  }
  const double r_f_prime = -psi_next;
  if (!(r_f_prime > 0.0)) return fallback;
  return std::cbrt(6.0 / (static_cast<double>(n) * r_f_prime));
}

StatusOr<int> TryDirectPlugInNumBins(std::span<const double> sample,
                                     const Domain& domain, int stages) {
  SELEST_ASSIGN_OR_RETURN(const double width,
                          TryDirectPlugInBinWidth(sample, domain, stages));
  const double bins = domain.width() / width;
  return std::max(1, static_cast<int>(std::lround(bins)));
}

int DirectPlugInNumBins(std::span<const double> sample, const Domain& domain,
                        int stages) {
  const double width = DirectPlugInBinWidth(sample, domain, stages);
  const double bins = domain.width() / width;
  return std::max(1, static_cast<int>(std::lround(bins)));
}

}  // namespace selest
