// The equal-width bin grid of the query-driven learners.
//
// The feedback histogram, the reconstructed distribution and the online
// learner (feedback/, online/) each keep one mass per bin of an
// equal-width grid over the column's domain. This grid maps a value to its
// bin, measures how much of a bin a range covers, and sums the masses a
// range overlaps. Its expressions and its summation order are those
// learners' numeric contract: the golden drift pins, the bitwise replays
// and the snapshot round-trips all depend on them, so a change here is a
// deliberate change of reference for all three.
#ifndef SELEST_DENSITY_EQUAL_WIDTH_GRID_H_
#define SELEST_DENSITY_EQUAL_WIDTH_GRID_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "src/data/domain.h"

namespace selest {

struct EqualWidthGrid {
  Domain domain;
  size_t num_bins = 1;

  // The bin holding `value` after clamping it into the domain.
  size_t BinOf(double value) const {
    const double bin_width = domain.width() / num_bins;
    auto bin = static_cast<long>((domain.Clamp(value) - domain.lo) / bin_width);
    bin = std::clamp<long>(bin, 0, static_cast<long>(num_bins) - 1);
    return static_cast<size_t>(bin);
  }

  // Fraction of bin i covered by [a, b], in [0, 1].
  double Overlap(size_t i, double a, double b) const {
    const double bin_width = domain.width() / num_bins;
    const double lo = domain.lo + i * bin_width;
    const double hi = lo + bin_width;
    const double overlap = std::min(b, hi) - std::max(a, lo);
    return overlap <= 0.0 ? 0.0 : overlap / bin_width;
  }

  // Σ_i Overlap(i, a, b) · masses[i] over the bins [a, b] reaches, clamped
  // to [0, 1]; `masses` holds one entry per bin. The bounds are clamped
  // into the domain first. Clamp passes NaN through, so one guard rejects
  // NaN, inverted and degenerate ranges (±inf clamps to the domain edges).
  double Selectivity(std::span<const double> masses, double a,
                     double b) const {
    a = domain.Clamp(a);
    b = domain.Clamp(b);
    if (!(a < b)) return 0.0;
    const double bin_width = domain.width() / num_bins;
    const auto first = static_cast<size_t>((a - domain.lo) / bin_width);
    double mass = 0.0;
    for (size_t i = std::min(first, num_bins - 1); i < num_bins; ++i) {
      const double fraction = Overlap(i, a, b);
      if (fraction <= 0.0 && domain.lo + i * bin_width > b) break;
      mass += fraction * masses[i];
    }
    return std::clamp(mass, 0.0, 1.0);
  }
};

}  // namespace selest

#endif  // SELEST_DENSITY_EQUAL_WIDTH_GRID_H_
