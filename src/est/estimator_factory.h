// Uniform construction of any estimator in the paper's comparison.
//
// The experiment harness and the figure benches sweep over estimator kinds
// and smoothing rules; this factory turns a declarative config into a
// ready-to-query estimator.
#ifndef SELEST_EST_ESTIMATOR_FACTORY_H_
#define SELEST_EST_ESTIMATOR_FACTORY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/data/domain.h"
#include "src/density/kde.h"
#include "src/density/kernel.h"
#include "src/est/guarded_estimator.h"
#include "src/est/selectivity_estimator.h"
#include "src/util/status.h"

namespace selest {

enum class EstimatorKind {
  kSampling,
  kUniform,
  kEquiWidth,
  kEquiDepth,
  kMaxDiff,
  kAverageShifted,
  kKernel,
  kHybrid,
  // Beyond-the-paper baselines (see DESIGN.md extensions).
  kVOptimal,
  kAdaptiveKernel,
  // Wavelet histogram ([4]); the smoothing parameter is the coefficient
  // budget.
  kWavelet,
  // The query-driven family (DESIGN.md §14): built from a sample prior (or
  // the uniform assumption) and refined per ObserveTrueSelectivity. The
  // smoothing rules resolve their grid resolution like any histogram.
  kFeedback,
  kReconstructed,
  kOnlineLearning,
};

const char* EstimatorKindName(EstimatorKind kind);

enum class SmoothingRule {
  // §4.1/§4.2 normal scale rule (h-NS in the figures).
  kNormalScale,
  // §4.3 direct plug-in rule (h-DPI2 with the default 2 stages).
  kDirectPlugIn,
  // Caller supplies the smoothing parameter explicitly (used by the oracle
  // search and the bin-count sweeps).
  kFixed,
};

const char* SmoothingRuleName(SmoothingRule rule);

struct EstimatorConfig {
  EstimatorKind kind = EstimatorKind::kEquiWidth;
  SmoothingRule smoothing = SmoothingRule::kNormalScale;
  // With kFixed: the bin count for histogram estimators (rounded) or the
  // bandwidth for kernel estimators.
  double fixed_smoothing = 0.0;
  // Direct plug-in stages (h-DPI2 = 2).
  int dpi_stages = 2;
  // Shift count of the average shifted histogram (the paper uses 10).
  int ash_shifts = 10;
  // Kernel options (kernel and hybrid estimators).
  KernelType kernel = KernelType::kEpanechnikov;
  BoundaryPolicy boundary = BoundaryPolicy::kBoundaryKernel;
};

// A 64-bit digest of every config field (FNV-1a). Two configs fingerprint
// equal iff they build the same estimator from the same sample, so the
// live server keys each column's snapshot file and WAL directory by
// CatalogKey (relation, attribute, fingerprint).
uint64_t FingerprintConfig(const EstimatorConfig& config);

// Builds the configured estimator from a sample over `domain`.
//
// Status-first for every failure reachable from external input: a
// non-finite domain or sample value, an empty sample (except kUniform), a
// smoothing rule that cannot produce a parameter (zero-spread or too-small
// samples, non-finite or absurd fixed parameters), and bin counts beyond
// kMaxNumBins are all kInvalidArgument. Bin counts above a discrete
// domain's cardinality are clamped to it (extra bins cannot hold distinct
// values). Honors the "est/build" fault point (exec/fault_injection.h).
StatusOr<std::unique_ptr<SelectivityEstimator>> BuildEstimator(
    std::span<const double> sample, const Domain& domain,
    const EstimatorConfig& config);

// Upper bound on histogram bin counts / wavelet coefficient budgets the
// factory will construct; larger requests are kInvalidArgument rather than
// an allocation of attacker-controlled size.
inline constexpr int kMaxNumBins = 1 << 22;

// The bin-count resolution BuildEstimator applies for histogram kinds
// (smoothing rule dispatch, discrete-cardinality clamp, kMaxNumBins
// limit), exposed so the streaming build path (est/streaming_build.h) can
// resolve the count from its reservoir sample before the one-pass fold.
StatusOr<int> ResolveConfigNumBins(std::span<const double> sample,
                                   const Domain& domain,
                                   const EstimatorConfig& config);

// The default degradation ladder appended after the primary estimator in a
// guarded build: an equi-width histogram under the normal scale rule (the
// paper's most robust cheap estimator). The uniform baseline is always the
// implicit last rung — it is built from the domain alone and cannot fail.
std::vector<EstimatorConfig> DefaultFallbackConfigs();

// Result of BuildGuardedEstimator: a never-null guarded chain, plus why
// the requested primary is missing from it (OK when it built).
struct GuardedBuild {
  std::unique_ptr<GuardedEstimator> estimator;
  Status primary_status;

  bool degraded() const { return !primary_status.ok(); }
};

// Builds `config` and the fallback ladder into one GuardedEstimator.
// Fallbacks that fail to build are skipped; the uniform baseline always
// terminates the chain, so on OK the returned estimator answers every
// query. Only a malformed domain (non-finite or empty range) fails — that
// is the one input the uniform rung itself needs.
StatusOr<GuardedBuild> BuildGuardedEstimator(
    std::span<const double> sample, const Domain& domain,
    const EstimatorConfig& config,
    std::span<const EstimatorConfig> fallbacks);

// Overload with the DefaultFallbackConfigs ladder.
StatusOr<GuardedBuild> BuildGuardedEstimator(std::span<const double> sample,
                                             const Domain& domain,
                                             const EstimatorConfig& config);

}  // namespace selest

#endif  // SELEST_EST_ESTIMATOR_FACTORY_H_
