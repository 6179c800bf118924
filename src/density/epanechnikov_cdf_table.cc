#include "src/density/epanechnikov_cdf_table.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace selest {
namespace {

// F((p + s − x)/h) as a cubic in s, from u = (p − x)/h and w = 1/h. The
// factored F(u) = (1 + u)²(2 − u)/4, 1 − F(u) = (1 − u)²(2 + u)/4 and
// F'(u) ∝ (1 − u)(1 + u) stay accurate at u ≈ ±1, where samples enter and
// leave the window.
struct SampleCubic {
  SampleCubic(double p, double x, double w)
      : u((p - x) * w),
        c0(0.25 * (1.0 + u) * (1.0 + u) * (2.0 - u)),
        rest(0.25 * (1.0 - u) * (1.0 - u) * (2.0 + u)),
        c1(0.75 * (1.0 - u) * (1.0 + u) * w),
        c2(-0.75 * u * (w * w)),
        c3(-0.25 * (w * w * w)) {}
  double u, c0, rest, c1, c2, c3;
};

}  // namespace

EpanechnikovCdfTable::EpanechnikovCdfTable(std::span<const double> sorted,
                                           double bandwidth) {
  std::vector<Event> enters(sorted.size());
  std::vector<Event> leaves(sorted.size());
  // x − h and x + h are non-decreasing in x, so both runs arrive sorted.
  for (size_t i = 0; i < sorted.size(); ++i) {
    enters[i] = {sorted[i] - bandwidth, i};
    leaves[i] = {sorted[i] + bandwidth, i};
  }
  const double inverse[1] = {1.0 / bandwidth};
  Sweep(sorted, inverse, enters, leaves);
  directory_ = CellDirectory(starts_);
}

EpanechnikovCdfTable::EpanechnikovCdfTable(
    std::span<const double> samples, std::span<const double> bandwidths) {
  SELEST_CHECK_EQ(samples.size(), bandwidths.size());
  std::vector<Event> enters(samples.size());
  std::vector<Event> leaves(samples.size());
  std::vector<double> inverse(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    enters[i] = {samples[i] - bandwidths[i], i};
    leaves[i] = {samples[i] + bandwidths[i], i};
    inverse[i] = 1.0 / bandwidths[i];
  }
  // Stable, so ties keep sample order. Ascending samples leave the runs
  // nearly sorted, which a merge sort handles well; std::sort degraded on
  // such runs for one of the headline samples.
  const auto by_position = [](const Event& l, const Event& r) {
    return l.position < r.position;
  };
  std::stable_sort(enters.begin(), enters.end(), by_position);
  std::stable_sort(leaves.begin(), leaves.end(), by_position);
  Sweep(samples, inverse, enters, leaves);
  directory_ = CellDirectory(starts_);
}

void EpanechnikovCdfTable::Sweep(std::span<const double> samples,
                                 std::span<const double> inverse_bandwidths,
                                 std::span<const Event> enters,
                                 std::span<const Event> leaves) {
  const bool shared = inverse_bandwidths.size() == 1;
  const auto cubic_at = [&](double p, size_t j) {
    return SampleCubic(p, samples[j], inverse_bandwidths[shared ? 0 : j]);
  };
  // The active window, a swap-remove list: slot[j] is j's index in it.
  std::vector<size_t> active;
  std::vector<size_t> slot(samples.size());
  active.reserve(samples.size());
  starts_.reserve(enters.size() + leaves.size());
  coefficients_.reserve(4 * (enters.size() + leaves.size()));

  double c[4] = {0.0, 0.0, 0.0, 0.0};  // G around `start`, local coordinate
  double start = 0.0;
  double passed = 0.0;  // samples whose support ended at or before `start`
  double peak = 0.0;    // largest |c[3]| since the last recomputation
  size_t since_anchor = 0;
  size_t ie = 0;
  size_t il = 0;
  while (ie < enters.size() || il < leaves.size()) {
    const double p = il == leaves.size() ||
                             (ie < enters.size() &&
                              !(leaves[il].position < enters[ie].position))
                         ? enters[ie].position
                         : leaves[il].position;
    if (!starts_.empty()) {  // Taylor shift from `start` to p
      const double d = p - start;
      c[0] = ((c[3] * d + c[2]) * d + c[1]) * d + c[0];
      c[1] = (3.0 * c[3] * d + 2.0 * c[2]) * d + c[1];
      c[2] = 3.0 * c[3] * d + c[2];
    }
    start = p;
    // Enters first: a support narrower than rounding (x − h == x + h)
    // enters and leaves at the same start.
    const size_t events_before = ie + il;
    for (; ie < enters.size() && enters[ie].position == p; ++ie) {
      const size_t j = enters[ie].sample;
      const SampleCubic in = cubic_at(p, j);
      c[0] += in.c0;
      c[1] += in.c1;
      c[2] += in.c2;
      c[3] += in.c3;
      slot[j] = active.size();
      active.push_back(j);
    }
    peak = std::max(peak, std::fabs(c[3]));
    for (; il < leaves.size() && leaves[il].position == p; ++il) {
      const size_t j = leaves[il].sample;
      const SampleCubic out = cubic_at(p, j);
      c[0] += out.rest;  // the cubic out, the sample's full mass of 1 in
      c[1] -= out.c1;
      c[2] -= out.c2;
      c[3] -= out.c3;
      passed += 1.0;
      active[slot[j]] = active.back();
      slot[active.back()] = slot[j];
      active.pop_back();
    }
    if (ie + il == events_before) break;  // a NaN position matches no head
    since_anchor += ie + il - events_before;
    // Recompute exactly from the window (written to also catch a NaN c[3]).
    // Waiting for as many events as the window holds keeps the periodic
    // recomputations at O(1) amortized per event.
    if (active.empty() ||
        since_anchor >= std::max(kMinReanchorEvents, active.size()) ||
        !(16.0 * std::fabs(c[3]) >= peak)) {
      double sum[4] = {0.0, 0.0, 0.0, 0.0};
      for (const size_t j : active) {
        const SampleCubic cubic = cubic_at(p, j);
        sum[0] += cubic.c0;
        sum[1] += cubic.c1;
        sum[2] += cubic.c2;
        sum[3] += cubic.c3;
      }
      c[0] = passed + sum[0];
      c[1] = sum[1];
      c[2] = sum[2];
      c[3] = sum[3];
      since_anchor = 0;
      peak = std::fabs(c[3]);
    }
    starts_.push_back(p);
    coefficients_.insert(coefficients_.end(), c, c + 4);
  }
}

}  // namespace selest
