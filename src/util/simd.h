// Portable SIMD shim: the branch-free searches the read paths share,
// and the runtime-dispatched ψ̂ pair-sum kernel behind the h-DPI rules
// (DESIGN.md §12).
//
// One binary serves any host: the vector kernel is compiled into per-ISA
// translation units (util/simd_avx2.cc at 4 lanes, util/simd_avx512.cc at
// 8 lanes, both from util/simd_kernels.inc.h) and selected once at
// runtime from CPUID. The scalar tier has no kernel table at all — the
// caller falls back to its scalar reference code, which keeps exactly one
// source of truth for the reference semantics.
//
// Exactness policy (tested by smoothing_psi_kernel_test): the vector
// kernel is *bit-identical* to the scalar reference. It evaluates the
// reference's floating-point operations in the same order within each
// lane, and a padded lane contributes exactly 0.0. The per-ISA TUs are
// compiled with -ffp-contract=off so no tier ever fuses a multiply-add the
// baseline scalar build would not. kSimdUlpTolerance documents the
// contract and is asserted at 0.
#ifndef SELEST_UTIL_SIMD_H_
#define SELEST_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace selest {

// The vector kernel is exact, not merely close: its tier tests compare it
// to the scalar reference with EXPECT_EQ, i.e. a 0-ULP bound.
inline constexpr int kSimdUlpTolerance = 0;

// ---------------------------------------------------------------------------
// Branch-free four-way binary search.
// ---------------------------------------------------------------------------
//
// Replaces the std::lower_bound/std::upper_bound chains on the indexed
// kernel, sampling, and histogram paths; over the immutable cumulative
// tables a CellDirectory (util/cell_directory.h) first narrows the window
// to one cell's keys. Each round probes the three
// quarter pivots of the window with independent (ILP-friendly)
// comparisons; over a sorted array the predicates are monotone, so the
// count of true ones times the quarter advances the base straight to the
// chosen quarter. The window then shrinks to n − 3q whatever the probes
// said (q + n mod 4 elements, which still brackets the answer when the
// base stopped short of the last quarter), and the last ≤ 3 elements are
// counted the same way. So the trip counts depend on n alone and no
// branch depends on the key: the counts are integer adds, where a
// `p ? q : 0` per probe compiles to conditional jumps that mispredict on
// random keys. Returns exactly the index std::lower_bound/
// std::upper_bound would for every total-ordered input (asserted by
// util_simd_test, including duplicate runs and ±inf keys).

inline size_t BranchFreeLowerBound(const double* data, size_t n, double key) {
  const double* base = data;
  while (n > 3) {
    const size_t q = n >> 2;
    base += q * (static_cast<size_t>(base[q - 1] < key) +
                 static_cast<size_t>(base[2 * q - 1] < key) +
                 static_cast<size_t>(base[3 * q - 1] < key));
    n -= 3 * q;
  }
  size_t rest = 0;
  for (size_t i = 0; i < n; ++i) rest += static_cast<size_t>(base[i] < key);
  return static_cast<size_t>(base - data) + rest;
}

inline size_t BranchFreeUpperBound(const double* data, size_t n, double key) {
  const double* base = data;
  // Advance on !(key < x), never the would-be-equivalent x <= key: they
  // differ for NaN keys (std::upper_bound returns n, x <= NaN would give 0),
  // and callers rely on matching std exactly for every input.
  while (n > 3) {
    const size_t q = n >> 2;
    base += q * (static_cast<size_t>(!(key < base[q - 1])) +
                 static_cast<size_t>(!(key < base[2 * q - 1])) +
                 static_cast<size_t>(!(key < base[3 * q - 1])));
    n -= 3 * q;
  }
  size_t rest = 0;
  for (size_t i = 0; i < n; ++i) {
    rest += static_cast<size_t>(!(key < base[i]));
  }
  return static_cast<size_t>(base - data) + rest;
}

// ---------------------------------------------------------------------------
// The dispatched kernel.
// ---------------------------------------------------------------------------

// The ψ̂ pair-sum kernel behind the direct plug-in rule (DESIGN.md §2).
// The scalar reference (EstimatePsiFunctional in smoothing/
// direct_plug_in.cc) and every tier's psi_pair_sums evaluate the same
// operations in the same order from these constants, so ψ̂ — and with it
// every h-DPI bandwidth, bin count and snapshot — never depends on the
// host's tier. Pair (i, j), i < j, adds P_s(u)·e(−u/2) with
// u = ((x_i − x_j)·(1/g))² to partial sum (j − i − 1) mod kPsiLanes; the
// partial sums run across all rows.
inline constexpr int kPsiLanes = 8;

// P_s(u) = He_s(z) for u = z², by Horner from the monic leading term:
// P = u + c[0], then P = P·u + c[k] for k = 1 .. s/2 − 1, c = row s/2 − 1.
inline constexpr double kPsiHermite[4][4] = {
    {-1.0},
    {-6.0, 3.0},
    {-15.0, 45.0, -15.0},
    {-28.0, 210.0, -420.0, 105.0},
};

// e(t) = exp(t) for t ≤ 0 from IEEE basic operations only. Exactly 0 for
// t < kExpFloor (exp(−708) ≈ 3.3e−308 is still normal, so no subnormal
// scaling is ever needed). Above it: k = round(t·log₂e) by the shifter
// trick; Cody–Waite reduction r = (t − k·ln2_hi) − k·ln2_lo with ln 2
// split so that k·ln2_hi is exact (21 trailing zero bits); e^r =
// 1 + (r + r²·Q(r)) with Q the degree-11 tail of the Taylor series
// (|r| ≤ ln2/2, truncation < 1e−17), evaluated by Estrin's scheme
//   Q = (b0 + b1·r⁴) + b2·r⁸,  b_m = (q_4m + q_4m+1·r) + (q_4m+2 + q_4m+3·r)·r²
// (q_i = kExpTaylor[i]); and the product with 2^k built from exponent bits.
inline constexpr double kExpFloor = -708.0;
inline constexpr double kExpLog2e = 0x1.71547652b82fep0;
inline constexpr double kExpShifter = 0x1.8p52;
inline constexpr double kExpLn2Hi = 0x1.62e42feep-1;
inline constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kExpTaylor[12] = {
    1.0 / 2.0,        1.0 / 6.0,         1.0 / 24.0,
    1.0 / 120.0,      1.0 / 720.0,       1.0 / 5040.0,
    1.0 / 40320.0,    1.0 / 362880.0,    1.0 / 3628800.0,
    1.0 / 39916800.0, 1.0 / 479001600.0, 1.0 / 6227020800.0,
};

// One table per vector tier; `width` is the tier's lanes per vector.
struct SimdOps {
  int width = 0;

  // The kPsiLanes partial sums of the ψ̂ pair sum over x[0, n) for
  // s ∈ {2, 4, 6, 8} (contract above); x needs no alignment. One call
  // covers the whole sample.
  void (*psi_pair_sums)(const double* x, int64_t n, double inv_g, int s,
                        double* lanes);
};

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* SimdTierName(SimdTier tier);

// True when this host can execute `tier` (kScalar is always supported).
bool SimdTierSupported(SimdTier tier);

// The tier the ψ̂ kernel uses right now: the best supported tier, capped
// by the SELEST_SIMD environment variable ("scalar", "avx2", "avx512";
// detected once) and by any active ScopedSimdTier override.
SimdTier ActiveSimdTier();

// The kernel table for the active tier, or nullptr for the scalar tier
// (the caller then runs its scalar reference). Thread-safe.
const SimdOps* ActiveSimdOps();

// The table for one specific tier (nullptr for kScalar or an unsupported
// tier); used by the tier tests and the speedup bench.
const SimdOps* SimdOpsForTier(SimdTier tier);

// Scoped tier override for tests and benchmarks. The override is
// process-wide: it takes effect for kernel calls issued after
// construction on any thread, including the eval layer's pool workers; do
// not change tiers while a build is in flight. Requires
// SimdTierSupported(tier).
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier);
  ~ScopedSimdTier();

  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  int previous_;  // encoded override slot, -1 = none
};

}  // namespace selest

#endif  // SELEST_UTIL_SIMD_H_
