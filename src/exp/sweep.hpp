// Utilization sweeps: the response-time-vs-utilization curves of
// Figs. 3, 5, 6 and 7. A sweep is an exp::ScenarioSpec in sweep mode: for
// each target gross utilization on its grid, one steady-state run is made;
// the sweep stops at the first unstable point (every higher point would be
// too), which is how the curves' vertical asymptotes — the maximal
// utilizations — appear.
//
// At every width the grid points are fanned out over one exp::Runner that
// shares the lowest grid index known to be unstable. A point past it is
// never built, and a point already running past it stops at its next job
// completion. That index never drops below the first unstable point, so
// every kept point runs to its end, and because each point is an
// independent run keyed only by (spec, utilization), the series
// is bit-identical at every width.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace mcsim {

namespace exp {
struct ScenarioSpec;
}  // namespace exp

/// Most points a generated grid may have. The paper's grids have 11-17;
/// the cap stops a hostile step (say 1e-10 in a scenario file) before the
/// grid is allocated.
inline constexpr std::size_t kMaxSweepPoints = 10000;

/// Grid from `from` to `to` in steps of `step` (inclusive, fp-safe). Throws
/// std::invalid_argument on a non-finite bound, a non-positive step or a
/// grid of more than kMaxSweepPoints points.
std::vector<double> make_sweep_grid(double from, double to, double step);

struct SweepPoint {
  double target_gross_utilization = 0.0;
  SimulationResult result;
};

struct SweepSeries {
  /// Legend text: the spec's label().
  std::string label;
  std::vector<SweepPoint> points;

  /// Highest target utilization with a stable result (0 if none).
  [[nodiscard]] double max_stable_utilization() const;
};

/// Sweep described entirely by a spec (mode kSweep): grid, jobs per point,
/// seed and parallelism all come from the spec, and every point's config is
/// exp::to_simulation_config(spec, utilization) — the same path `mcsim run`
/// and manifest replay use.
SweepSeries run_sweep(const exp::ScenarioSpec& spec);

}  // namespace mcsim
