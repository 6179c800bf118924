// A cell directory: one flat index that narrows a search over an
// immutable sorted key array to the few keys of one cell (DESIGN.md §2).
//
// Built once from sorted keys k[0, m) with M = m equal cells over
// [k[0], k[m−1]]:
//
//   cell(x)  = ⌊(x − k[0])·(M/(k[m−1] − k[0]))⌋, clamped to [0, M − 1] in
//              double before the cast,
//   start[c] = the number of keys whose cell is below c.
//
// LowerBound/UpperBound return start[c] plus the branch-free search over
// k[start[c], start[c + 1]), c = cell(x). That is exactly the
// std::lower_bound/std::upper_bound index for every non-NaN x: cell() is
// non-decreasing (a subtraction and a multiplication by a positive constant,
// each rounded to nearest, then a clamp and a truncation), so every key of a
// lower cell is below x and every key of a higher cell is above it. A NaN x
// clamps to cell 0 for the lower bound and to cell M − 1 for the upper bound,
// which matches std there too. A degenerate span (fewer than two keys, all
// keys equal, or a span or scale that is not finite) gives one cell: the
// full search.
//
// The directory holds no pointer into the keys, so it copies with its
// owner; every query passes the same keys it was built from.
#ifndef SELEST_UTIL_CELL_DIRECTORY_H_
#define SELEST_UTIL_CELL_DIRECTORY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/util/check.h"
#include "src/util/simd.h"

namespace selest {

class CellDirectory {
 public:
  // Over no keys: one empty cell, so every search returns 0.
  CellDirectory() = default;

  // `keys` sorted ascending, no NaN. One counting pass, then a prefix sum.
  explicit CellDirectory(std::span<const double> keys) {
    const size_t m = keys.size();
    SELEST_CHECK_LT(m, size_t{std::numeric_limits<uint32_t>::max()});
    size_t cells = 1;
    const double span = m > 1 ? keys.back() - keys.front() : 0.0;
    if (span > 0.0 && std::isfinite(span)) {
      const double scale = static_cast<double>(m) / span;
      if (std::isfinite(scale)) {
        cells = m;
        origin_ = keys.front();
        scale_ = scale;
      }
    }
    top_ = static_cast<double>(cells - 1);
    start_.assign(cells + 1, 0);
    for (const double key : keys) ++start_[LowerCell(key) + 1];
    for (size_t c = 1; c <= cells; ++c) start_[c] += start_[c - 1];
  }

  // std::lower_bound(keys, keys + m, x) − keys.
  size_t LowerBound(const double* keys, double x) const {
    const size_t c = LowerCell(x);
    const uint32_t first = start_[c];
    return first + BranchFreeLowerBound(keys + first, start_[c + 1] - first, x);
  }

  // std::upper_bound(keys, keys + m, x) − keys.
  size_t UpperBound(const double* keys, double x) const {
    const size_t c = UpperCell(x);
    const uint32_t first = start_[c];
    return first + BranchFreeUpperBound(keys + first, start_[c + 1] - first, x);
  }

  size_t num_cells() const { return start_.size() - 1; }

 private:
  // The clamps are ordered so a NaN lands where std puts it: std::max(0.0,
  // NaN) is 0.0 and std::min(top_, NaN) is top_.
  size_t LowerCell(double x) const {
    return static_cast<uint32_t>(
        std::min(std::max(0.0, (x - origin_) * scale_), top_));
  }
  size_t UpperCell(double x) const {
    return static_cast<uint32_t>(
        std::max(0.0, std::min(top_, (x - origin_) * scale_)));
  }

  double origin_ = 0.0;
  double scale_ = 0.0;  // M/(k[m−1] − k[0]); 0 for one cell
  double top_ = 0.0;    // M − 1, as a double for the clamp
  std::vector<uint32_t> start_ = {0, 0};  // M + 1 entries, start_[M] = m
};

}  // namespace selest

#endif  // SELEST_UTIL_CELL_DIRECTORY_H_
