#include "exp/sweep.hpp"

#include <atomic>

#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace mcsim {

std::vector<double> SweepConfig::grid(double lo, double hi, double step) {
  // Generate by index: `u += step` accumulation drifts by ~n*eps*|u| and can
  // skip or duplicate the endpoint on fine grids (e.g. 100.0..100.5 by
  // 0.001). One multiply per point keeps the error at a single rounding.
  MCSIM_REQUIRE(step > 0.0, "grid step must be positive");
  std::vector<double> points;
  for (std::size_t i = 0;; ++i) {
    const double u = lo + static_cast<double>(i) * step;
    if (u > hi + step * 0.5) break;
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

SweepSeries run_sweep(const PaperScenario& scenario, const SweepConfig& config) {
  if (config.target_utilizations.empty()) {
    // An explicitly empty grid means "no points" — don't let the spec fall
    // back to its default generated grid.
    SweepSeries series;
    series.scenario = scenario;
    return series;
  }
  exp::ScenarioSpec spec = exp::ScenarioSpec::from_paper(scenario);
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = config.target_utilizations;
  spec.sim_jobs = config.jobs_per_point;
  spec.seed = config.seed;
  spec.parallelism = config.parallelism;
  return run_sweep(spec);
}

SweepSeries run_sweep(const exp::ScenarioSpec& spec) {
  SweepSeries series;
  series.scenario = spec.paper_scenario();
  const std::string label = spec.label();
  const std::vector<double> grid = spec.sweep_grid();

  // The lowest grid index known to be unstable: a point that finishes
  // unstable lowers it, a point past it is never built, and one running
  // past it stops at its next completion. It never drops below the first
  // unstable index, so every kept point runs to its end, as serially.
  std::atomic<std::size_t> cutoff{grid.size()};
  exp::Runner runner(spec.parallelism);
  auto results = runner.map(grid.size(), [&](std::size_t i) {
    if (i > cutoff.load(std::memory_order_relaxed)) return SimulationResult{};
    SimulationConfig config = exp::to_simulation_config(spec, grid[i]);
    MulticlusterSimulation simulation(std::move(config));
    simulation.set_job_observer([&sim = simulation.simulator(), &cutoff, i](const Job&, double) {
      if (i > cutoff.load(std::memory_order_relaxed)) sim.stop();
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
    log_point(label, grid[i], point.result);
    const bool unstable = point.result.unstable;
    series.points.push_back(std::move(point));
    if (unstable) break;  // all higher loads are unstable too
  }
  return series;
}

}  // namespace mcsim
