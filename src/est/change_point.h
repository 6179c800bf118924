// Change-point detection for the hybrid estimator (§3.3).
//
// The paper detects change points of the underlying PDF at the maxima of
// the (estimated) second derivative: the asymptotic kernel error is driven
// by f'' (equation (9a)), so splitting the domain where |f''| peaks removes
// the worst error contributions. Detection evaluates a pilot density on a
// grid, any callable x ↦ f̂(x): the hybrid passes the reflecting pilot of
// density/kde.h (the derivative of a cumulative table for the Epanechnikov
// kernel, Kde::Density for other shapes). Further change points are found
// recursively inside the resulting partitions.
#ifndef SELEST_EST_CHANGE_POINT_H_
#define SELEST_EST_CHANGE_POINT_H_

#include <functional>
#include <vector>

#include "src/data/domain.h"
#include "src/density/kde.h"

namespace selest {

struct ChangePointConfig {
  // Maximum number of change points to report.
  int max_change_points = 8;
  // Grid resolution for the pilot density scan.
  int grid_size = 512;
  // A candidate is accepted only if |f̂''| there exceeds this multiple of
  // the mean |f̂''| over the scanned segment — guards against splitting on
  // noise in already-smooth regions.
  double significance = 2.0;
  // Candidates closer than this fraction of the domain width to an existing
  // change point or domain boundary are discarded.
  double min_separation_fraction = 0.02;
};

// Returns change-point locations (ascending) detected from
// `pilot_density` over `domain`, evaluated once at each of the
// config.grid_size + 1 grid points. May return fewer than
// config.max_change_points (possibly none) when no significant curvature
// maxima exist.
std::vector<double> DetectChangePoints(
    const std::function<double(double)>& pilot_density, const Domain& domain,
    const ChangePointConfig& config);

}  // namespace selest

#endif  // SELEST_EST_CHANGE_POINT_H_
