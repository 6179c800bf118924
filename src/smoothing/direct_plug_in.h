// Direct plug-in rules for the smoothing parameter (§4.3).
//
// The normal scale rule replaces the unknown density functionals R(f') and
// R(f'') with their Gaussian values. The direct plug-in rule instead
// *estimates* them from the sample: the functional ψ_s = E[f^(s)(X)] is
// estimated by the double sum
//
//   ψ̂_s(g) = (1/n²) Σ_i Σ_j φ_g^(s)(X_i − X_j)
//
// with Gaussian derivative kernels, where the pilot bandwidth g for stage s
// is computed from the next-higher functional ψ_{s+2} — starting from a
// normal-scale value at the highest stage. More stages push the Gaussian
// assumption further away from the final answer; the paper finds two or
// three stages sufficient (§4.3) and uses h-DPI2 in Fig. 11.
#ifndef SELEST_SMOOTHING_DIRECT_PLUG_IN_H_
#define SELEST_SMOOTHING_DIRECT_PLUG_IN_H_

#include <span>

#include "src/data/domain.h"
#include "src/density/kernel.h"
#include "src/util/status.h"

namespace selest {

// Estimates ψ_s = ∫ f^(s)(x) f(x) dx with a Gaussian kernel of bandwidth g.
// `s` must be even and in {2, 4, 6, 8}. Exposed for tests. O(n²): the pair
// sum runs on the active SIMD tier, bit-identical on every tier (the
// kernel contract is in util/simd.h, DESIGN.md §2 and §12).
double EstimatePsiFunctional(std::span<const double> sample, int s, double g);

// The pair sum's exp(t) for t ≤ 0: within 2 ULP of expl on
// [kExpFloor, 0] and exactly 0 below kExpFloor (util/simd.h). Exposed for
// tests.
double ExpNonPositive(double t);

// The Gaussian (normal-scale) reference value of ψ_s for scale sigma.
double NormalScalePsi(int s, double sigma);

// The Try* forms are Status-first: an empty sample or a stage count
// outside [1, 3] is an error, never an abort (both are reachable from
// externally supplied configs and data). The plain forms keep the
// historical aborting contract.

// Kernel bandwidth by the `stages`-stage direct plug-in rule (stages in
// [1, 3]; the paper's h-DPI2 is stages = 2). Falls back to the normal
// scale rule if a functional estimate degenerates.
StatusOr<double> TryDirectPlugInBandwidth(std::span<const double> sample,
                                          const Domain& domain,
                                          const Kernel& kernel = Kernel(),
                                          int stages = 2);
double DirectPlugInBandwidth(std::span<const double> sample,
                             const Domain& domain,
                             const Kernel& kernel = Kernel(), int stages = 2);

// Equi-width bin width by the direct plug-in rule:
// h_EW = (6 / (n · R(f̂')))^(1/3) with R(f') estimated as −ψ̂_2.
StatusOr<double> TryDirectPlugInBinWidth(std::span<const double> sample,
                                         const Domain& domain, int stages = 2);
double DirectPlugInBinWidth(std::span<const double> sample,
                            const Domain& domain, int stages = 2);

// Bin count implied by DirectPlugInBinWidth (at least 1).
StatusOr<int> TryDirectPlugInNumBins(std::span<const double> sample,
                                     const Domain& domain, int stages = 2);
int DirectPlugInNumBins(std::span<const double> sample, const Domain& domain,
                        int stages = 2);

}  // namespace selest

#endif  // SELEST_SMOOTHING_DIRECT_PLUG_IN_H_
