// The shared core of all histogram estimators (§3.1).
//
// A histogram partitions the domain into bins (c_i, c_{i+1}] with counts
// n_i. The density estimate is f̂_H(x) = (1/n) Σ (n_i / h_i) 1[x in bin i]
// and the selectivity of Q(a, b) follows formula (4):
//
//   σ̂_H(a, b) = (1/n) Σ_i (n_i / h_i) ψ_i(a, b)
//
// with ψ_i the length of the overlap between the query and bin i. That sum
// is the difference of one piecewise-linear cumulative mass, so it is
// answered from two lookups instead of a walk over the overlapped bins:
//
//   C⁺(x) = mass at or below x (atoms at x included),
//   C⁻(x) = mass strictly below x (atoms at x excluded),
//   σ̂_H(a, b) = clamp((C⁺(b) − C⁻(a)) / n, 0, 1).
//
// Both find the bin holding x with one edge search (upper bound for C⁺,
// lower bound for C⁻) and return cum_i + n_i·((x − c_i)/h_i), where cum_i is
// the mass of the bins before bin i; they are 0 below the first edge and the
// total mass above the last. The search goes through a cell directory over
// the edges (util/cell_directory.h): one multiply picks the cell, and a
// branch-free search over that cell's few edges returns exactly the index
// a search over all edges would. So a read costs O(1) for evenly spread
// edges and O(log k) at worst. A bound on an edge lands exactly
// on cum, so a bin-aligned query over integer counts answers count/n
// exactly, and σ̂_H never decreases as the range grows. An inverted range
// or a NaN bound answers 0. DESIGN.md §12 records how this form replaced
// the per-bin walk as the numeric reference.
//
// The bin *placement* policies (equi-width, equi-depth, max-diff, shifted)
// live in src/est; they all delegate the arithmetic to BinnedDensity.
#ifndef SELEST_DENSITY_HISTOGRAM_DENSITY_H_
#define SELEST_DENSITY_HISTOGRAM_DENSITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/cell_directory.h"
#include "src/util/status.h"

namespace selest {

// An immutable histogram: k+1 edges and k counts. Zero-width bins are
// permitted (equi-depth histograms over heavily duplicated data collapse
// quantile edges) and are treated as atoms: their count contributes fully
// whenever the query covers the bin's position.
class BinnedDensity {
 public:
  // `edges` must be finite, non-decreasing, at least two, with a finite
  // span; `counts` must have edges.size()−1 finite, non-negative entries
  // with a finite sum. `total_count` is the sample size n used for
  // normalization (usually the sum of counts), finite and positive.
  // Anything else, NaN included, is kInvalidArgument.
  static StatusOr<BinnedDensity> Create(std::vector<double> edges,
                                        std::vector<double> counts,
                                        double total_count);

  // The checks Create makes, without building anything (for callers that
  // keep a histogram's parts, such as the average shifted histogram).
  static Status Validate(std::span<const double> edges,
                         std::span<const double> counts, double total_count);

  // Convenience: buckets `sample` into the bins defined by `edges` (values
  // outside the edge range are clamped into the first/last bin) and
  // normalizes by the sample size.
  static StatusOr<BinnedDensity> FromSample(std::span<const double> sample,
                                            std::vector<double> edges);

  size_t num_bins() const { return counts_.size(); }
  const std::vector<double>& edges() const { return edges_; }
  const std::vector<double>& counts() const { return counts_; }
  double total_count() const { return total_count_; }

  // Density estimate f̂_H(x); atoms (zero-width bins) return +inf at their
  // position and are better handled through Selectivity.
  double Density(double x) const;

  // Selectivity of [a, b] per formula (4), in [0, 1]: the cumulative form
  // above. Atoms contribute fully when a <= c <= b.
  double Selectivity(double a, double b) const;

  // Bytes of storage for the edges + counts: what a system catalog would
  // persist (the cumulative masses are derived, not stored).
  size_t StorageBytes() const;

  // This histogram plus `other`, which must share the exact edge vector:
  // counts and totals add, so the result equals bucketing the union of the
  // two underlying samples (the live server's exact merge path).
  StatusOr<BinnedDensity> MergedWith(const BinnedDensity& other) const;

  // This histogram with `values` bucketed into the existing bins (the same
  // clamping rule as FromSample) and the total raised by values.size().
  // Exact: folding rows one batch at a time equals bucketing them all at
  // once. An empty span returns an unchanged copy.
  BinnedDensity FoldedWith(std::span<const double> values) const;

  // C⁺(x): total mass at or below `x`, atoms at `x` included. Used by the
  // equi-depth quantile merge.
  double MassBelow(double x) const;

 private:
  // Derives the cumulative masses from `counts` and the directory from
  // `edges`.
  BinnedDensity(std::vector<double> edges, std::vector<double> counts,
                double total_count);

  // The cumulative mass at `x`, given pos = the number of edges below x
  // (C⁻, from a lower-bound search) or at or below x (C⁺, upper bound).
  double CumulativeAt(size_t pos, double x) const;

  std::vector<double> edges_;
  std::vector<double> counts_;
  // cumulative_[i] = counts_[0] + … + counts_[i−1], summed left to right;
  // one entry per edge.
  std::vector<double> cumulative_;
  CellDirectory directory_;  // over edges_
  double total_count_;
};

}  // namespace selest

#endif  // SELEST_DENSITY_HISTOGRAM_DENSITY_H_
