#include "src/est/change_point.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace selest {

std::vector<double> DetectChangePoints(
    const std::function<double(double)>& pilot_density, const Domain& domain,
    const ChangePointConfig& config) {
  SELEST_CHECK_GE(config.grid_size, 8);
  SELEST_CHECK_GE(config.max_change_points, 0);
  const int grid = config.grid_size;
  const double step = domain.width() / grid;

  // Pilot density on the grid, then |f''| by central second differences.
  std::vector<double> density(grid + 1);
  for (int i = 0; i <= grid; ++i) {
    density[i] = pilot_density(domain.lo + i * step);
  }
  std::vector<double> curvature(grid + 1, 0.0);
  double mean_curvature = 0.0;
  for (int i = 1; i < grid; ++i) {
    curvature[i] =
        std::fabs(density[i + 1] - 2.0 * density[i] + density[i - 1]) /
        (step * step);
    mean_curvature += curvature[i];
  }
  mean_curvature /= std::max(grid - 1, 1);
  if (mean_curvature <= 0.0) return {};

  const double threshold = config.significance * mean_curvature;
  const double min_separation =
      config.min_separation_fraction * domain.width();

  // Greedy recursive selection: repeatedly take the strongest remaining
  // curvature maximum that is far enough from the boundaries and from all
  // previously accepted change points.
  std::vector<double> change_points;
  while (static_cast<int>(change_points.size()) < config.max_change_points) {
    int best_index = -1;
    double best_value = threshold;
    for (int i = 1; i < grid; ++i) {
      if (curvature[i] <= best_value) continue;
      const double x = domain.lo + i * step;
      if (x - domain.lo < min_separation || domain.hi - x < min_separation) {
        continue;
      }
      bool separated = true;
      for (double cp : change_points) {
        if (std::fabs(cp - x) < min_separation) {
          separated = false;
          break;
        }
      }
      if (!separated) continue;
      best_index = i;
      best_value = curvature[i];
    }
    if (best_index < 0) break;
    change_points.push_back(domain.lo + best_index * step);
  }
  std::sort(change_points.begin(), change_points.end());
  return change_points;
}

}  // namespace selest
