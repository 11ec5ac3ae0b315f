#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace mcsim {

std::vector<double> make_sweep_grid(double from, double to, double step) {
  MCSIM_REQUIRE(std::isfinite(from) && std::isfinite(to) && std::isfinite(step),
                "scenario: sweep from/to/step must be finite");
  MCSIM_REQUIRE(step > 0.0, "grid step must be positive");
  // Count the points before allocating any, so a hostile step fails here
  // and not in the allocator. The loop bound leaves one point of rounding
  // slack; the break test decides the endpoint.
  const double count = std::floor((to - from) / step + 0.5) + 1.0;
  MCSIM_REQUIRE(count <= static_cast<double>(kMaxSweepPoints),
                "scenario: the sweep grid has more than " +
                    std::to_string(kMaxSweepPoints) + " points");
  // Generate by index: `u += step` accumulation drifts by ~n*eps*|u| and can
  // skip or duplicate the endpoint on fine grids (e.g. 100.0..100.5 by
  // 0.001). One multiply per point keeps the error at a single rounding.
  std::vector<double> points;
  for (std::size_t i = 0; i <= static_cast<std::size_t>(std::max(count, 0.0)); ++i) {
    const double u = from + static_cast<double>(i) * step;
    if (u > to + step * 0.5) break;
    points.push_back(u);
  }
  return points;
}

double SweepSeries::max_stable_utilization() const {
  double best = 0.0;
  for (const auto& point : points) {
    if (!point.result.unstable && point.target_gross_utilization > best) {
      best = point.target_gross_utilization;
    }
  }
  return best;
}

namespace {

void log_point(const std::string& label, double util, const SimulationResult& result) {
  MCSIM_LOG(kInfo) << label << " @ rho=" << format_util(util)
                   << (result.unstable
                           ? " UNSTABLE"
                           : " mean response " + format_double(result.mean_response(), 1));
}

}  // namespace

SweepSeries run_sweep(const exp::ScenarioSpec& spec) {
  SweepSeries series;
  series.label = spec.label();
  const std::vector<double> grid = spec.sweep_grid();

  // The lowest grid index known to be unstable: a point that finishes
  // unstable lowers it, a point past it is never built, and one running
  // past it stops at its next completion. It never drops below the first
  // unstable index, so every kept point runs to its end, as serially.
  std::atomic<std::size_t> cutoff{grid.size()};
  // One trace scan serves every point: the scan is a pass over the whole log.
  const exp::TraceResolver trace = exp::resolve_trace_once(spec);
  exp::Runner runner(spec.parallelism);
  auto results = runner.map(grid.size(), [&](std::size_t i) {
    if (i > cutoff.load(std::memory_order_relaxed)) return SimulationResult{};
    SimulationConfig config = exp::to_simulation_config(spec, grid[i], trace);
    MulticlusterSimulation simulation(std::move(config));
    simulation.set_job_observer([&simulation, &cutoff, i](const Job&, double) {
      if (i > cutoff.load(std::memory_order_relaxed)) simulation.stop();
    });
    SimulationResult result = simulation.run();
    std::size_t known = cutoff.load(std::memory_order_relaxed);
    while (result.unstable && i < known &&
           !cutoff.compare_exchange_weak(known, i, std::memory_order_relaxed)) {
    }
    return result;
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SweepPoint point;
    point.target_gross_utilization = grid[i];
    point.result = std::move(results[i]);
    log_point(series.label, grid[i], point.result);
    const bool unstable = point.result.unstable;
    series.points.push_back(std::move(point));
    if (unstable) break;  // all higher loads are unstable too
  }
  return series;
}

}  // namespace mcsim
