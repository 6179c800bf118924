// The estimator interface (§2).
//
// A selectivity estimator approximates the distribution selectivity
// σ(a, b) = P(a <= A <= b) of a range query from a sample of the relation.
// The instance result size is estimated as N · σ̂(a, b).
//
// Thread-safety contract: after construction, every const member — in
// particular EstimateSelectivity — must be safe to call concurrently from
// multiple threads. Implementations must not hide mutable caches or lazy
// initialization behind const methods; the parallel experiment runner
// (eval/parallel_experiment.h) calls into one estimator instance from
// many threads at once, and the tsan CMake preset exists to enforce this.
// Estimators never fan work out themselves: only the eval layer schedules
// work across threads.
#ifndef SELEST_EST_SELECTIVITY_ESTIMATOR_H_
#define SELEST_EST_SELECTIVITY_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/query/range_query.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace selest {

// Stable on-disk type tags for estimator snapshots (est/estimator_snapshot.h).
// Append-only: a tag, once released, names that payload layout forever.
// 0 is reserved for "does not snapshot".
enum class EstimatorTag : uint32_t {
  kNone = 0,
  kUniform = 1,
  kSampling = 2,
  kEquiWidth = 3,
  kEquiDepth = 4,
  kMaxDiff = 5,
  kVOptimal = 6,
  kWavelet = 7,
  kAverageShifted = 8,
  kKernel = 9,
  kAdaptiveKernel = 10,
  kHybrid = 11,
  kGuarded = 12,
  kFeedback = 13,
  kReconstructed = 14,
  kOnlineLearning = 15,
};

class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  // Estimated selectivity σ̂(a, b) in [0, 1]. Every estimator the factory
  // builds answers 0 when a > b or a bound is NaN; GuardedEstimator repairs
  // such queries instead (est/guarded_estimator.h).
  virtual double EstimateSelectivity(double a, double b) const = 0;

  double EstimateSelectivity(const RangeQuery& q) const {
    return EstimateSelectivity(q.a, q.b);
  }

  // Estimates every query into `out` (same size as `queries`): out[i] =
  // EstimateSelectivity(queries[i]), one call per query on the calling
  // thread. Not virtual — an estimator has one read path.
  void EstimateSelectivityBatch(std::span<const RangeQuery> queries,
                                std::span<double> out) const;

  // Estimated result size for a relation of `num_records` records.
  double EstimateResultSize(const RangeQuery& q, size_t num_records) const {
    return EstimateSelectivity(q) * static_cast<double>(num_records);
  }

  // Bytes a system catalog would persist for this estimator (bin edges and
  // counts for histograms, the sample for sampling/kernel estimators).
  virtual size_t StorageBytes() const = 0;

  // Short human-readable name, e.g. "equi-width(20)".
  virtual std::string name() const = 0;

  // The on-disk type tag of this estimator's snapshot payload, or
  // EstimatorTag::kNone when the estimator does not support snapshots.
  // Each paired DeserializeState factory lives on the concrete class;
  // est/estimator_snapshot.h dispatches on the tag.
  virtual EstimatorTag SnapshotTypeTag() const { return EstimatorTag::kNone; }

  // Appends the derived query-time state (not the raw build inputs) to
  // `writer`, so a deserialized instance answers bit-identically without
  // re-running construction. Default: kFailedPrecondition (no snapshot
  // support).
  virtual Status SerializeState(ByteWriter& writer) const;

  // --- Incremental maintenance (the live-server ingest contract) ---
  //
  // A *mergeable* estimator can absorb new rows without a full rebuild:
  // MergeFrom folds another built instance of the same type into this one,
  // FoldRows folds raw attribute values directly. The union law bounds the
  // drift: Build(A ∪ B) and Merge(Build(A), Build(B)) agree exactly for
  // count-based sketches (equi-width bins, sorted samples) and within a
  // bounded quantile-interpolation error for equi-depth histograms (see
  // DESIGN.md §10 and the est_merge_property_test suite).
  //
  // Mutators are NOT part of the const thread-safety contract above: the
  // live server only ever mutates its private ingest-side accumulator and
  // publishes immutable clones to readers. Defaults: not mergeable /
  // kFailedPrecondition.
  virtual bool SupportsMerge() const { return false; }
  virtual Status MergeFrom(const SelectivityEstimator& other);
  virtual Status FoldRows(std::span<const double> rows);

  // --- Query feedback (the query-driven estimation contract, DESIGN.md §14) -
  //
  // A *query-driven* estimator can refine itself from execution feedback:
  // ObserveTrueSelectivity folds one (range, true-selectivity) observation
  // into the estimator's state. Like the merge contract above, observation
  // is a mutator and NOT part of the const thread-safety contract — the
  // live server's write-back (LiveStatisticsServer::ObserveTrueSelectivity)
  // observes on a private snapshot clone and publishes it as the next
  // generation, so concurrent readers keep serving the previous immutable
  // state. It also replays its feedback ring in order onto every rebuild,
  // which relies on replay determinism: one build followed by the same
  // observations in the same order lands on the same bits as the chain of
  // clone-then-observe steps.
  //
  // Observation ordering matters: feedback estimators are online learners,
  // so permuting the observation sequence may change the state. The family
  // contract (enforced by feedback_property_test) bounds that divergence:
  // after repeated passes over the same observation multiset, estimates
  // under any two orderings agree within a documented tolerance, and an
  // observation whose true selectivity the estimator already predicts
  // exactly is a no-op (idempotence at the fixed point).
  //
  // feedback_observations() counts accepted observations (monotone).
  // Defaults: not query-driven / kFailedPrecondition / 0.
  virtual bool SupportsFeedback() const { return false; }
  virtual Status ObserveTrueSelectivity(const RangeQuery& query,
                                        double true_selectivity);
  virtual uint64_t feedback_observations() const { return 0; }
};

}  // namespace selest

#endif  // SELEST_EST_SELECTIVITY_ESTIMATOR_H_
