// The summed Epanechnikov CDF of a sample as a lookup table.
//
// The kernel estimators (§3.2) answer σ̂(a, b) = (G(b) − G(a))/n with
//
//   G(t) = Σ_i F((t − x_i)/h_i),   F(u) = 0.5 + (3u − u³)/4 on [−1, 1],
//
// so G is a piecewise cubic with breakpoints x_i ± h_i. The table keeps
// each piece's four cubic coefficients in the piece's own local coordinate
// s = t − start, and G(t) is one search over the starts plus one Horner
// step, however many samples lie near t. The search goes through a cell
// directory over the starts (util/cell_directory.h): one multiply picks
// the cell, and a branch-free search over its few starts returns exactly
// the piece a search over all starts would, so a read costs O(1) where the
// starts spread evenly and O(log n) at worst. Its derivative G′ is the
// Epanechnikov density sum, read the same way: the boundary strips, the
// adaptive pilot and the hybrid's change-point pilot evaluate their
// densities from it.
//
// One sweep over the sorted enter (x_i − h_i) and leave (x_i + h_i) events
// fills it: the running cubic is Taylor-shifted from start to start, an
// entering sample adds its cubic and a leaving one swaps its cubic for its
// full mass of 1. The coefficients are recomputed exactly from the samples
// whose support covers the start (the active window) once the events since
// the last recomputation reach the window's size (and at least
// kMinReanchorEvents), whenever the window empties, and whenever |c3| falls
// below 1/16 of its peak since the last recomputation (a removal cancelled
// most of it). That holds G within 1e-12 of a long-double per-sample sum
// (density_epanechnikov_cdf_table_test). At most one piece per event, five
// doubles each: at most ten doubles per sample.
#ifndef SELEST_DENSITY_EPANECHNIKOV_CDF_TABLE_H_
#define SELEST_DENSITY_EPANECHNIKOV_CDF_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "src/util/cell_directory.h"

namespace selest {

class EpanechnikovCdfTable {
 public:
  // The empty table; MassBelow must not be called on it.
  EpanechnikovCdfTable() = default;

  // One bandwidth h > 0 for every sample; `sorted` must be ascending and
  // finite. Merges the two sorted event runs: O(n).
  EpanechnikovCdfTable(std::span<const double> sorted, double bandwidth);

  // Per-sample bandwidths (all > 0) parallel to finite `samples`. Sorts the
  // event runs: O(n log n).
  EpanechnikovCdfTable(std::span<const double> samples,
                       std::span<const double> bandwidths);

  // G(t): 0 left of every support, the sample count right of every support.
  // Requires a non-empty table and a finite t.
  double MassBelow(double t) const {
    const size_t above = directory_.UpperBound(starts_.data(), t);
    // Left of the first start, piece 0 at s = 0 holds G = 0.
    const size_t piece = above - static_cast<size_t>(above != 0);
    const double s = std::max(t - starts_[piece], 0.0);
    const double* c = coefficients_.data() + 4 * piece;
    return ((c[3] * s + c[2]) * s + c[1]) * s + c[0];
  }

  // G′(t) = Σ_i K((t − x_i)/h_i)/h_i, K(u) = 3(1 − u²)/4 on [−1, 1]: the
  // Epanechnikov density sum, from the same search and the derivative of
  // the piece's cubic. Exactly 0 outside every support (the recomputation
  // at an emptied window zeroes c1..c3). Requires a non-empty table and a
  // finite t.
  double Derivative(double t) const {
    const size_t above = directory_.UpperBound(starts_.data(), t);
    if (above == 0) return 0.0;  // left of every support
    const double s = t - starts_[above - 1];
    const double* c = coefficients_.data() + 4 * (above - 1);
    return (3.0 * c[3] * s + 2.0 * c[2]) * s + c[1];
  }

  size_t num_pieces() const { return starts_.size(); }
  size_t SizeInDoubles() const {
    return starts_.size() + coefficients_.size();
  }

 private:
  static constexpr size_t kMinReanchorEvents = 128;

  struct Event {
    double position;
    size_t sample;
  };

  // `inverse_bandwidths` holds 1/h: one shared value or one per sample.
  void Sweep(std::span<const double> samples,
             std::span<const double> inverse_bandwidths,
             std::span<const Event> enters, std::span<const Event> leaves);

  std::vector<double> starts_;        // ascending, one per piece
  std::vector<double> coefficients_;  // c0..c3 of piece i at [4i, 4i + 4)
  CellDirectory directory_;           // over starts_, derived after Sweep
};

}  // namespace selest

#endif  // SELEST_DENSITY_EPANECHNIKOV_CDF_TABLE_H_
