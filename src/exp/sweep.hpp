// Utilization sweeps: the response-time-vs-utilization curves of
// Figs. 3, 5, 6 and 7. For each target gross utilization on a grid, one
// steady-state run is made; the sweep stops at the first unstable point
// (every higher point would be too), which is how the curves' vertical
// asymptotes — the maximal utilizations — appear.
//
// At every width the grid points are fanned out over one exp::Runner that
// shares the lowest grid index known to be unstable. A point past it is
// never built, and a point already running past it stops at its next job
// completion. That index never drops below the first unstable point, so
// every kept point runs to its end, and because each point is an
// independent run keyed only by (scenario, utilization, seed), the series
// is bit-identical at every width.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/scenario.hpp"

namespace mcsim {

namespace exp {
struct ScenarioSpec;
}  // namespace exp

struct SweepConfig {
  std::vector<double> target_utilizations;
  std::uint64_t jobs_per_point = 30000;
  std::uint64_t seed = 1;
  /// Worker threads for the sweep (1 = inline on the calling thread, 0 =
  /// all hardware threads). The series does not depend on it.
  unsigned parallelism = 1;

  /// Grid from `lo` to `hi` in steps of `step` (inclusive, fp-safe).
  static std::vector<double> grid(double lo, double hi, double step);
};

struct SweepPoint {
  double target_gross_utilization = 0.0;
  SimulationResult result;
};

struct SweepSeries {
  PaperScenario scenario;
  std::vector<SweepPoint> points;

  /// Highest target utilization with a stable result (0 if none).
  [[nodiscard]] double max_stable_utilization() const;
};

SweepSeries run_sweep(const PaperScenario& scenario, const SweepConfig& config);

/// Sweep described entirely by a spec (mode kSweep): grid, jobs per point,
/// seed and parallelism all come from the spec, and every point's config is
/// exp::to_simulation_config(spec, utilization) — the same path `mcsim run`
/// and manifest replay use. The PaperScenario overload above is a thin
/// translator onto this one.
SweepSeries run_sweep(const exp::ScenarioSpec& spec);

}  // namespace mcsim
