// The width-parametric vector kernel, included by the per-ISA translation
// units (util/simd_avx2.cc, util/simd_avx512.cc) with
//
//   SELEST_SIMD_NAMESPACE — namespace to define the kernel in, and
//   SELEST_SIMD_WIDTH     — lanes per vector (4 or 8).
//
// The kernel is written with GCC vector extensions, replaying the scalar
// reference code's floating-point operations in the same order within
// each lane. Padded lanes contribute exactly 0.0, so results are
// bit-identical to the scalar path (DESIGN.md §12; the including TU is
// compiled with -ffp-contract=off so no multiply-add fusion can creep in).
//
// This file deliberately has no include guard semantics beyond one
// inclusion per TU; it must only be included by the simd_*.cc ISA files.

#include <cstdint>

#include "src/util/simd.h"

namespace selest {
namespace SELEST_SIMD_NAMESPACE {
namespace {

constexpr int kW = SELEST_SIMD_WIDTH;

typedef double VecD __attribute__((vector_size(kW * 8)));
typedef int64_t VecI __attribute__((vector_size(kW * 8)));

inline VecD BroadcastD(double x) {
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = x;
  return v;
}

inline VecI BroadcastI(int64_t x) {
  VecI v;
  for (int i = 0; i < kW; ++i) v[i] = x;
  return v;
}

inline VecD LoadD(const double* p) {
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = p[i];
  return v;
}

inline void StoreD(double* p, VecD v) {
  for (int i = 0; i < kW; ++i) p[i] = v[i];
}

// ---------------------------------------------------------------------------
// psi_pair_sums: EstimatePsiFunctional's pair sum (contract in util/simd.h).
// kPsiLanes / kW vectors hold the partial sums: lane l of vector v is
// partial sum v·kW + l, at either width.
// ---------------------------------------------------------------------------

typedef uint64_t VecU __attribute__((vector_size(kW * 8)));

// ExpNonPositive, lane for lane. This and PsiPairTermV are forced inline;
// GCC otherwise emits them out of line, one call per block of pairs.
__attribute__((always_inline)) inline VecD ExpNonPositiveV(VecD t) {
  const VecD shifted = t * BroadcastD(kExpLog2e) + BroadcastD(kExpShifter);
  const VecD k = shifted - BroadcastD(kExpShifter);
  const VecD r =
      (t - k * BroadcastD(kExpLn2Hi)) - k * BroadcastD(kExpLn2Lo);
  const double* q = kExpTaylor;
  const VecD r2 = r * r;
  const VecD r4 = r2 * r2;
  const VecD b0 = (q[0] + q[1] * r) + (q[2] + q[3] * r) * r2;
  const VecD b1 = (q[4] + q[5] * r) + (q[6] + q[7] * r) * r2;
  const VecD b2 = (q[8] + q[9] * r) + (q[10] + q[11] * r) * r2;
  const VecD tail = (b0 + b1 * r4) + b2 * (r4 * r4);
  const VecD p = 1.0 + (r + r2 * tail);
  const VecU scale = ((VecU)shifted + 1023) << 52;
  const VecD zero = {};
  return t < BroadcastD(kExpFloor) ? zero : p * (VecD)scale;
}

template <int kDegree>
__attribute__((always_inline)) inline VecD PsiPairTermV(VecD xi, VecD xj,
                                                        VecD inv_g) {
  const double* c = kPsiHermite[kDegree - 1];
  const VecD z = (xi - xj) * inv_g;
  const VecD u = z * z;
  VecD p = u + BroadcastD(c[0]);
  for (int k = 1; k < kDegree; ++k) p = p * u + BroadcastD(c[k]);
  return p * ExpNonPositiveV(BroadcastD(-0.5) * u);
}

template <int kDegree>
void PsiPairSumsT(const double* x, int64_t n, double inv_g, double* lanes) {
  constexpr int kVecs = kPsiLanes / kW;
  const VecD ig = BroadcastD(inv_g);
  const VecD zero = {};
  VecD acc[kVecs] = {};
  for (int64_t i = 0; i + 1 < n; ++i) {
    const VecD xi = BroadcastD(x[i]);
    int64_t j = i + 1;
    for (; j + kPsiLanes <= n; j += kPsiLanes) {
      for (int v = 0; v < kVecs; ++v) {
        acc[v] += PsiPairTermV<kDegree>(xi, LoadD(x + j + v * kW), ig);
      }
    }
    if (j == n) continue;
    // Row tail: pad a full block with x_i and discard the padded lanes.
    // Adding +0.0 leaves a partial sum unchanged: the sums start at +0.0
    // and so are never −0.0.
    const int64_t rest = n - j;
    double block[kPsiLanes];
    for (int l = 0; l < kPsiLanes; ++l) block[l] = l < rest ? x[j + l] : x[i];
    for (int v = 0; v < kVecs; ++v) {
      VecI lane = {};
      for (int l = 0; l < kW; ++l) lane[l] = v * kW + l;
      const VecD term = PsiPairTermV<kDegree>(xi, LoadD(block + v * kW), ig);
      acc[v] += lane < BroadcastI(rest) ? term : zero;
    }
  }
  for (int v = 0; v < kVecs; ++v) StoreD(lanes + v * kW, acc[v]);
}

void PsiPairSums(const double* x, int64_t n, double inv_g, int s,
                 double* lanes) {
  switch (s) {
    case 2:
      PsiPairSumsT<1>(x, n, inv_g, lanes);
      break;
    case 4:
      PsiPairSumsT<2>(x, n, inv_g, lanes);
      break;
    case 6:
      PsiPairSumsT<3>(x, n, inv_g, lanes);
      break;
    default:
      PsiPairSumsT<4>(x, n, inv_g, lanes);
      break;
  }
}

}  // namespace

const SimdOps* GetOps() {
  static const SimdOps ops = {
      /*width=*/kW,
      /*psi_pair_sums=*/&PsiPairSums,
  };
  return &ops;
}

}  // namespace SELEST_SIMD_NAMESPACE
}  // namespace selest
