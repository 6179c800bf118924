// Width-parametric vector kernels, included by the per-ISA translation
// units (util/simd_avx2.cc, util/simd_avx512.cc) with
//
//   SELEST_SIMD_NAMESPACE — namespace to define the kernels in, and
//   SELEST_SIMD_WIDTH     — lanes per block (4 or 8).
//
// The kernels are written with GCC vector extensions: one query per lane,
// replaying the scalar reference code's floating-point operations in the
// same order within each lane. Data-dependent scalar branches become
// blends whose discarded side contributes exactly 0.0, so results are
// bit-identical to the scalar path (DESIGN.md §12; the including TU is
// compiled with -ffp-contract=off so no multiply-add fusion can creep in).
//
// This file deliberately has no include guard semantics beyond one
// inclusion per TU; it must only be included by the simd_*.cc ISA files.

#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

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

// Hardware gathers where the ISA has them: the block kernels are
// gather-bound (edges/counts/sample strips indexed per lane), and the
// elementwise fallback loop costs kW dependent scalar loads per call.
inline VecD Gather(const double* p, VecI idx) {
#if SELEST_SIMD_WIDTH == 8 && defined(__AVX512F__)
  // Full-mask gather over a zeroed source: the plain unmasked intrinsic
  // expands over an undefined source vector and trips -Wmaybe-uninitialized.
  return (VecD)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), (__mmask8)-1,
                                        (__m512i)idx, p, 8);
#elif SELEST_SIMD_WIDTH == 4 && defined(__AVX2__)
  return (VecD)_mm256_i64gather_pd(p, (__m256i)idx, 8);
#else
  VecD v;
  for (int i = 0; i < kW; ++i) v[i] = p[idx[i]];
  return v;
#endif
}

// ---------------------------------------------------------------------------
// Vectorized branch-free searches (all lanes over one shared array, so the
// halving schedule — and thus the trip count — is lane-invariant).
// ---------------------------------------------------------------------------

// Four-way rounds, like the scalar BranchFreeLowerBound: the three probes
// of a round are independent gathers that issue together, so the
// latency chain is log4 rounds deep instead of log2. The window length is
// kept lane-invariant (len − 3q covers both the fully-advanced lane's
// remainder q + len mod 4 and the partially-advanced lane's quartile q —
// a slightly-too-wide window still brackets the answer), and the masks are
// monotone, so every lane lands on exactly the std::lower_bound index.
inline VecI LowerBoundV(const double* data, int64_t n, VecD key) {
  VecI base = {};
  if (n <= 0) return base;
  int64_t len = n;
  while (len > 3) {
    const int64_t q = len >> 2;
    const VecD g1 = Gather(data, base + (q - 1));
    const VecD g2 = Gather(data, base + (2 * q - 1));
    const VecD g3 = Gather(data, base + (3 * q - 1));
    const VecI m1 = g1 < key;
    const VecI m2 = g2 < key;
    const VecI m3 = g3 < key;
    base += (m1 & q) + (m2 & q) + (m3 & q);
    len -= 3 * q;
  }
  // Finish the ≤3-wide window with independent probes: base+k stays in
  // bounds for k < len (base + len <= n is a loop invariant), and the
  // running AND counts the leading run of advancing probes — exactly the
  // chained one-at-a-time walk, minus the serial gather latencies.
  VecI adv = {};
  VecI run = BroadcastI(-1);
  for (int64_t k = 0; k < len; ++k) {
    const VecD probe = Gather(data, base + k);
    run &= probe < key;
    adv -= run;  // run lanes are -1 while still advancing
  }
  return base + adv;
}

inline VecI UpperBoundV(const double* data, int64_t n, VecD key) {
  VecI base = {};
  if (n <= 0) return base;
  int64_t len = n;
  while (len > 3) {
    const int64_t q = len >> 2;
    const VecD g1 = Gather(data, base + (q - 1));
    const VecD g2 = Gather(data, base + (2 * q - 1));
    const VecD g3 = Gather(data, base + (3 * q - 1));
    // ~(key < probe), not probe <= key: the two differ on NaN keys, and
    // this search must return exactly BranchFreeUpperBound's (= std's)
    // index for every lane.
    const VecI m1 = ~(key < g1);
    const VecI m2 = ~(key < g2);
    const VecI m3 = ~(key < g3);
    base += (m1 & q) + (m2 & q) + (m3 & q);
    len -= 3 * q;
  }
  VecI adv = {};
  VecI run = BroadcastI(-1);
  for (int64_t k = 0; k < len; ++k) {
    const VecD probe = Gather(data, base + k);
    run &= ~(key < probe);
    adv -= run;
  }
  return base + adv;
}

// ---------------------------------------------------------------------------
// sorted_count_block: SamplingEstimator::EstimateSelectivity.
// ---------------------------------------------------------------------------

void SortedCountBlock(const double* sorted, int64_t n, const double* a,
                      const double* b, double* out) {
  const VecD av = LoadD(a);
  const VecD bv = LoadD(b);
  const VecI lo = LowerBoundV(sorted, n, av);
  const VecI hi = UpperBoundV(sorted, n, bv);
  const VecD matched = __builtin_convertvector(hi - lo, VecD);
  VecD result = matched / BroadcastD(static_cast<double>(n));
  // !(a <= b): inverted ranges and NaN bounds answer 0, as in the scalar
  // EstimateSelectivity.
  const VecI rejected = ~(av <= bv);
  const VecD zero = {};
  result = rejected ? zero : result;
  StoreD(out, result);
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
      /*sorted_count_block=*/&SortedCountBlock,
      /*psi_pair_sums=*/&PsiPairSums,
  };
  return &ops;
}

}  // namespace SELEST_SIMD_NAMESPACE
}  // namespace selest
