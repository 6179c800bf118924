// Graceful degradation for selectivity estimation.
//
// A selectivity estimator embedded in a query optimizer must never crash
// the host or hand it a poisoned number: a malformed query (NaN/Inf
// bounds, inverted range) or a misbehaving estimator (non-finite or
// out-of-[0, 1] estimate) should degrade to a bounded, cheaper answer —
// ultimately the paper's §3.1 uniform/System-R baseline, which is
// computable from the domain alone — and be counted, not fatal.
//
// GuardedEstimator decorates a chain of estimators (primary first,
// fallbacks after). Per query it
//   1. repairs the query: NaN bounds widen to the domain edge, inverted
//      ranges are swapped, everything is clamped into the domain;
//   2. walks the chain until a link returns a finite estimate, clamping
//      out-of-[0, 1] drift;
//   3. falls back to the uniform estimate (b − a) / |domain| when every
//      link returns garbage.
// A healthy chain head answers every query unchanged — the guard is
// observationally transparent then (bit-identical estimates), which is
// what lets the guarded sweep keep the parallel runner's determinism
// contract. Degradations are counted in thread-safe counters for the
// experiment report; a healthy read writes none of them.
//
// Thread-safety: EstimateSelectivity follows the SelectivityEstimator
// contract (safe for concurrent const calls); the counters are relaxed
// atomics.
//
// BuildGuardedEstimator in est/estimator_factory.h assembles the chain
// from declarative configs and records why the primary was skipped.
#ifndef SELEST_EST_GUARDED_ESTIMATOR_H_
#define SELEST_EST_GUARDED_ESTIMATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/data/domain.h"
#include "src/est/selectivity_estimator.h"

namespace selest {

// Snapshot of a GuardedEstimator's degradation counters.
struct GuardedStats {
  uint64_t repaired_queries = 0;    // NaN bound widened or inverted range swapped
  uint64_t clamped_estimates = 0;   // finite estimate outside [0, 1], clamped
  uint64_t fallback_estimates = 0;  // answered by a non-primary chain link
  uint64_t uniform_rescues = 0;     // whole chain non-finite; uniform answered

  // Any event that changed an answer relative to the unguarded primary.
  bool degraded() const {
    return repaired_queries + clamped_estimates + fallback_estimates +
               uniform_rescues >
           0;
  }
};

class GuardedEstimator : public SelectivityEstimator {
 public:
  // `chain` is primary-first; entries must be non-null. An empty chain is
  // allowed (every query degrades straight to the uniform answer).
  GuardedEstimator(std::vector<std::unique_ptr<SelectivityEstimator>> chain,
                   const Domain& domain);

  // Never NaN/Inf, always in [0, 1], for any double inputs including
  // NaN/Inf bounds and inverted ranges.
  using SelectivityEstimator::EstimateSelectivity;
  double EstimateSelectivity(double a, double b) const override;

  // Sum over the chain (the fallbacks are part of the persisted state).
  size_t StorageBytes() const override;

  // "guarded(<link> | <link> | ...)", or "guarded(uniform)" for an empty
  // chain.
  std::string name() const override;

  GuardedStats stats() const;

  size_t chain_length() const { return chain_.size(); }
  // The chain head, or nullptr for an empty chain.
  const SelectivityEstimator* head() const {
    return chain_.empty() ? nullptr : chain_.front().get();
  }

  EstimatorTag SnapshotTypeTag() const override {
    return EstimatorTag::kGuarded;
  }
  // Serializes the domain and every chain link recursively. Degradation
  // counters are serving-lifetime state and restart at zero on load; the
  // atomics also make this class non-movable, so deserialization lives in
  // est/estimator_snapshot.cc on the public constructor.
  Status SerializeState(ByteWriter& writer) const override;

  // The guard is a self-correcting tier when any link is query-driven:
  // feedback is repaired like a query (NaN→domain edge, inverted→swap) and
  // forwarded to every supporting link, so a fallback keeps learning even
  // while a poisoned primary is being skipped. Mutator — not part of the
  // const thread-safety contract (the live server's write-back observes a
  // clone).
  bool SupportsFeedback() const override;
  Status ObserveTrueSelectivity(const RangeQuery& query,
                                double true_selectivity) override;
  // Observations accepted by at least one link.
  uint64_t feedback_observations() const override {
    return feedback_observations_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<SelectivityEstimator>> chain_;
  Domain domain_;

  mutable std::atomic<uint64_t> repaired_queries_{0};
  mutable std::atomic<uint64_t> clamped_estimates_{0};
  mutable std::atomic<uint64_t> fallback_estimates_{0};
  mutable std::atomic<uint64_t> uniform_rescues_{0};
  std::atomic<uint64_t> feedback_observations_{0};
};

}  // namespace selest

#endif  // SELEST_EST_GUARDED_ESTIMATOR_H_
