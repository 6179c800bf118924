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

inline bool AnyTrue(VecI m) {
  int64_t acc = 0;
  for (int i = 0; i < kW; ++i) acc |= m[i];
  return acc != 0;
}

inline bool AllTrue(VecI m) {
  int64_t acc = -1;
  for (int i = 0; i < kW; ++i) acc &= m[i];
  return acc != 0;
}

inline int64_t MaxLane(VecI v) {
  int64_t m = v[0];
  for (int i = 1; i < kW; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

// Clamps indices into [0, n) so inactive lanes gather a valid (ignored)
// address.
inline VecI ClampIndex(VecI idx, int64_t n) {
  const VecI hi = BroadcastI(n - 1);
  const VecI over = idx > hi;
  idx = over ? hi : idx;
  const VecI zero = {};
  const VecI under = idx < zero;
  return under ? zero : idx;
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
// Scalar-replica arithmetic helpers (exact operation order).
// ---------------------------------------------------------------------------

// std::clamp(v, 0.0, 1.0) — (v < lo) ? lo : (hi < v) ? hi : v.
inline VecD Clamp01(VecD v) {
  const VecD zero = {};
  const VecD one = BroadcastD(1.0);
  const VecI below = v < zero;
  VecD r = below ? zero : v;
  const VecI above = one < r;
  return above ? one : r;
}

// Kernel::Cdf for Epanechnikov: 0 below −1, 1 above +1, else
// 0.5 + 0.25·(3t − t³) with t³ evaluated as (t·t)·t, exactly as the
// scalar code in density/kernel.cc.
inline VecD EpanechnikovCdf(VecD t) {
  const VecD t3 = (t * t) * t;
  const VecD poly = BroadcastD(0.5) + BroadcastD(0.25) * (BroadcastD(3.0) * t - t3);
  const VecD zero = {};
  const VecD one = BroadcastD(1.0);
  const VecI low = t <= BroadcastD(-1.0);
  const VecI high = t >= one;
  VecD r = low ? zero : poly;
  r = high ? one : r;
  return r;
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
  const VecI inverted = av > bv;
  const VecD zero = {};
  result = inverted ? zero : result;
  StoreD(out, result);
}

// ---------------------------------------------------------------------------
// kernel_block: KernelEstimator::EstimateSelectivity (Epanechnikov).
// ---------------------------------------------------------------------------

// CdfSum's fringe scan: continues accumulating `sum` with
// Cdf((b−x)/h) − Cdf((a−x)/h) over sorted[from,to) per lane, one sample
// at a time in index order (masked past each lane's end), preserving the
// scalar loop's exact summation association. The masked-out additions are
// +0.0 onto a non-negative sum, which cannot change its bits.
inline VecD FringeSum(const double* sorted, int64_t n, VecI from, VecI to,
                      VecD av, VecD bv, double h, VecD sum) {
  const VecD hv = BroadcastD(h);
  const VecD zero = {};
  const int64_t trips = MaxLane(to - from);
  for (int64_t j = 0; j < trips; ++j) {
    const VecI idx = from + j;
    const VecI active = idx < to;
    const VecD x = Gather(sorted, ClampIndex(idx, n));
    const VecD diff =
        EpanechnikovCdf((bv - x) / hv) - EpanechnikovCdf((av - x) / hv);
    sum += active ? diff : zero;
  }
  return sum;
}

// CdfSum for a block whose lanes all take the same (wide/narrow) case
// split; `wide` mirrors the scalar `a + radius <= b − radius` test.
inline VecD CdfSumV(const KernelBlockArgs& args, VecD av, VecD bv, bool wide) {
  const double radius = args.radius;
  const VecD rv = BroadcastD(radius);
  VecD sum;
  if (wide) {
    const VecI full_lo =
        LowerBoundV(args.sorted, args.sorted_size, av + rv);
    const VecI full_hi =
        UpperBoundV(args.sorted, args.sorted_size, bv - rv);
    sum = __builtin_convertvector(full_hi - full_lo, VecD);
    const VecI left_lo =
        LowerBoundV(args.sorted, args.sorted_size, av - rv);
    sum = FringeSum(args.sorted, args.sorted_size, left_lo, full_lo, av, bv,
                    args.h, sum);
    const VecI right_hi =
        UpperBoundV(args.sorted, args.sorted_size, bv + rv);
    sum = FringeSum(args.sorted, args.sorted_size, full_hi, right_hi, av, bv,
                    args.h, sum);
  } else {
    const VecI lo = LowerBoundV(args.sorted, args.sorted_size, av - rv);
    const VecI hi = UpperBoundV(args.sorted, args.sorted_size, bv + rv);
    const VecD zero = {};
    sum = FringeSum(args.sorted, args.sorted_size, lo, hi, av, bv, args.h,
                    zero);
  }
  return sum / BroadcastD(args.original_count);
}

// StripTable::CumulativeAt for one strip, all lanes. Requires size >= 2
// and hi > lo (callers special-case the degenerate strips).
inline VecD StripCumulativeAt(const double* cum, int64_t size, double lo,
                              double hi, VecD x) {
  const VecD lov = BroadcastD(lo);
  const VecD hiv = BroadcastD(hi);
  const VecD nodes = BroadcastD(static_cast<double>(size - 1));
  const VecD position = (x - lov) / (hiv - lov) * nodes;
  // Out-of-strip lanes are fully blended below; clamp the raw position
  // first so the float→int conversion stays in range for them too.
  const VecD pzero = {};
  VecD pclamped = (position < pzero) ? pzero : position;
  pclamped = (nodes < pclamped) ? nodes : pclamped;
  const VecI index = __builtin_convertvector(pclamped, VecI);
  const VecD fraction = position - __builtin_convertvector(index, VecD);
  const VecI ig = ClampIndex(index, size - 1);  // gather-safe: ig+1 <= size-1
  const VecD c0 = Gather(cum, ig);
  const VecD c1 = Gather(cum, ig + 1);
  const VecD back = BroadcastD(cum[size - 1]);
  // Reverse priority order of the scalar early returns.
  VecD r = c0 + fraction * (c1 - c0);
  r = (index + 1 >= BroadcastI(size)) ? back : r;
  r = (x >= hiv) ? back : r;
  r = (x <= lov) ? pzero : r;
  return r;
}

// StripTable::Mass(x1, x2) for one strip, all lanes.
inline VecD StripMassV(const double* cum, int64_t size, double lo, double hi,
                       VecD x1, VecD x2) {
  const VecD zero = {};
  if (size < 2) return zero;
  VecD mass;
  if (!(hi > lo)) {
    // Degenerate strip: every x is <= lo or >= hi, so CumulativeAt is a
    // two-way select with the scalar's check order (x <= lo wins).
    const VecD back = BroadcastD(cum[size - 1]);
    const VecD lov = BroadcastD(lo);
    const VecD hiv = BroadcastD(hi);
    VecD c2 = (x2 >= hiv) ? back : zero;
    c2 = (x2 <= lov) ? zero : c2;
    VecD c1 = (x1 >= hiv) ? back : zero;
    c1 = (x1 <= lov) ? zero : c1;
    mass = c2 - c1;
  } else {
    mass = StripCumulativeAt(cum, size, lo, hi, x2) -
           StripCumulativeAt(cum, size, lo, hi, x1);
  }
  return (x2 <= x1) ? zero : mass;
}

int KernelBlock(const KernelBlockArgs& args, const double* a, const double* b,
                double* out) {
  const VecD a_raw = LoadD(a);
  const VecD b_raw = LoadD(b);
  // Bail on non-finite bounds: the scalar path's NaN behavior runs through
  // code we do not replicate lane-wise.
  if (!AllTrue((a_raw == a_raw) & (b_raw == b_raw))) return 0;
  const VecD inf = BroadcastD(__builtin_huge_val());
  if (AnyTrue((a_raw == inf) | (a_raw == -inf) | (b_raw == inf) |
              (b_raw == -inf))) {
    return 0;
  }

  // Domain clamp (std::clamp(x, lo, hi) on finite inputs).
  const VecD dlo = BroadcastD(args.domain_lo);
  const VecD dhi = BroadcastD(args.domain_hi);
  VecD av = (a_raw < dlo) ? dlo : a_raw;
  av = (dhi < av) ? dhi : av;
  VecD bv = (b_raw < dlo) ? dlo : b_raw;
  bv = (dhi < bv) ? dhi : bv;

  // Lanes the scalar path zeroes before CdfSum; they still participate in
  // the case-split classification below (their clamped bounds are valid
  // numbers), and their computed value is discarded at the end.
  const VecI zero_lane = (a_raw > b_raw) | (av >= bv);

  const VecD rv = BroadcastD(args.radius);
  VecD result;
  if (!args.boundary_kernel) {
    const VecI wide = (av + rv) <= (bv - rv);
    if (!AllTrue(wide) && AnyTrue(wide)) return 0;  // mixed case split
    result = Clamp01(CdfSumV(args, av, bv, AllTrue(wide)));
  } else {
    VecD total = StripMassV(args.left_cum, args.left_size, args.left_lo,
                            args.left_hi, av, bv);
    const VecD lhi = BroadcastD(args.left_hi);
    const VecD rlo = BroadcastD(args.right_lo);
    const VecD ilo = (av < lhi) ? lhi : av;   // std::max(a, left.hi)
    const VecD ihi = (rlo < bv) ? rlo : bv;   // std::min(b, right.lo)
    const VecI interior = ilo < ihi;
    if (!AllTrue(interior) && AnyTrue(interior)) return 0;
    if (AllTrue(interior)) {
      const VecI wide = (ilo + rv) <= (ihi - rv);
      if (!AllTrue(wide) && AnyTrue(wide)) return 0;
      total += CdfSumV(args, ilo, ihi, AllTrue(wide));
    }
    total += StripMassV(args.right_cum, args.right_size, args.right_lo,
                        args.right_hi, av, bv);
    result = Clamp01(total);
  }

  const VecD zero = {};
  result = zero_lane ? zero : result;
  StoreD(out, result);
  return 1;
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
      /*kernel_block=*/&KernelBlock,
      /*psi_pair_sums=*/&PsiPairSums,
  };
  return &ops;
}

}  // namespace SELEST_SIMD_NAMESPACE
}  // namespace selest
