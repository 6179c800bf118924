// Online (progressive) selectivity estimation with confidence intervals.
//
// §6 lists applying kernel estimators to online aggregation [6] as future
// work: a user watches an estimate converge while the system keeps
// sampling. OnlineSelectivityEstimator ingests a stream of sampled records
// and, at any point, answers a range query with the current estimate and a
// CLT confidence interval:
//
//   * sampling mode — the in-range fraction, variance p(1−p)/n;
//   * kernel mode — the mean of the per-sample kernel contributions
//     w_i = F((b−X_i)/h) − F((a−X_i)/h) (the summands of Alg. 1), with the
//     bandwidth re-fit to the samples seen so far and the interval from the
//     empirical variance of the w_i.
//
// The kernel contributions have smaller variance than the 0/1 indicators
// whenever the query edges cut through populated regions, which is the
// "faster convergence than pure sampling" advantage the paper cites.
#ifndef SELEST_ONLINE_ONLINE_ESTIMATOR_H_
#define SELEST_ONLINE_ONLINE_ESTIMATOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/data/domain.h"
#include "src/density/kernel.h"
#include "src/query/range_query.h"

namespace selest {

// A progressive estimate with a symmetric confidence interval, clipped to
// [0, 1].
struct IntervalEstimate {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 1.0;
  size_t samples = 0;

  double half_width() const { return 0.5 * (hi - lo); }
};

class OnlineSelectivityEstimator {
 public:
  explicit OnlineSelectivityEstimator(const Domain& domain,
                                      Kernel kernel = Kernel());

  // Ingests one streamed sample. Amortized O(1); ordering is re-established
  // lazily when an estimate is requested.
  void AddSample(double value);

  // Batch ingest. Keeps every value: memory grows with the stream, so
  // this belongs in a bounded online-aggregation query, not in a
  // long-lived ingest path.
  void AddSamples(std::span<const double> values);

  size_t samples_seen() const { return values_.size(); }

  // Kernel-based progressive estimate. `confidence` in (0, 1). Requires at
  // least two samples; with fewer, returns the trivial [0, 1] interval.
  IntervalEstimate Estimate(const RangeQuery& query,
                            double confidence = 0.95) const;

  // Pure-sampling progressive estimate (the baseline the kernel mode is
  // compared against).
  IntervalEstimate SamplingEstimate(const RangeQuery& query,
                                    double confidence = 0.95) const;

  // Current normal-scale bandwidth for the samples seen so far.
  double CurrentBandwidth() const;

 private:
  void EnsureSorted() const;

  Domain domain_;
  Kernel kernel_;
  mutable std::vector<double> values_;  // sorted up to sorted_prefix_
  mutable size_t sorted_prefix_ = 0;
};

}  // namespace selest

#endif  // SELEST_ONLINE_ONLINE_ESTIMATOR_H_
