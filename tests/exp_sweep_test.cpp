#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/report.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"

namespace mcsim {
namespace {

/// A GS sweep (limit 16, DAS-s-128) over an explicit grid.
exp::ScenarioSpec gs_sweep(std::vector<double> grid, std::uint64_t jobs,
                           std::uint64_t seed = 1) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = std::move(grid);
  spec.sim_jobs = jobs;
  spec.seed = seed;
  return spec;
}

TEST(SweepGrid, InclusiveEndpoints) {
  const auto grid = make_sweep_grid(0.2, 0.6, 0.1);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.2);
  EXPECT_NEAR(grid.back(), 0.6, 1e-9);
}

TEST(SweepGrid, SinglePoint) {
  const auto grid = make_sweep_grid(0.5, 0.5, 0.1);
  ASSERT_EQ(grid.size(), 1u);
}

TEST(Scenario, LabelsAreDescriptive) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  spec.component_limit = 16;
  spec.balanced_queues = false;
  EXPECT_EQ(spec.label(), "LS limit=16 unbalanced DAS-s-128");

  exp::ScenarioSpec sc;
  sc.policy = PolicyKind::kSC;
  sc.size_model = "das-s-64";
  EXPECT_EQ(sc.label(), "SC DAS-s-64");
}

TEST(Scenario, PaperConfigUsesDasLayout) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  const auto config = exp::to_simulation_config(spec, 0.4);
  EXPECT_EQ(config.cluster_sizes, (std::vector<std::uint32_t>{32, 32, 32, 32}));
  EXPECT_EQ(config.total_processors(), 128u);
  EXPECT_TRUE(config.workload.split_jobs);

  exp::ScenarioSpec sc;
  sc.policy = PolicyKind::kSC;
  const auto sc_config = exp::to_simulation_config(sc, 0.4);
  EXPECT_EQ(sc_config.cluster_sizes, (std::vector<std::uint32_t>{128}));
  EXPECT_FALSE(sc_config.workload.split_jobs);
}

TEST(Scenario, UnbalancedSetsQueueWeights) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  spec.balanced_queues = false;
  const auto config = exp::to_simulation_config(spec, 0.4);
  ASSERT_EQ(config.workload.queue_weights.size(), 4u);
  EXPECT_DOUBLE_EQ(config.workload.queue_weights[0], 0.4);
  EXPECT_DOUBLE_EQ(config.workload.queue_weights[1], 0.2);
}

TEST(Scenario, DasS64UsesCutDistribution) {
  exp::ScenarioSpec spec;
  spec.size_model = "das-s-64";
  const auto config = exp::to_simulation_config(spec, 0.4);
  EXPECT_DOUBLE_EQ(config.workload.size_distribution.max_value(), 64.0);
}

TEST(Sweep, StopsAfterFirstUnstablePoint) {
  // 1.5 is far beyond saturation.
  const auto series = run_sweep(gs_sweep({0.2, 1.5, 0.3}, 3000, /*seed=*/3));
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_FALSE(series.points[0].result.unstable);
  EXPECT_TRUE(series.points[1].result.unstable);
  EXPECT_DOUBLE_EQ(series.max_stable_utilization(), 0.2);
}

TEST(Sweep, NeverBuildsAPointPastAKnownUnstableOne) {
  // The smallest positive utilization passes the spec's validation, but its
  // arrival rate underflows to zero, so building that point's simulation
  // throws ("arrival_rate must be positive"). The sweep passes only if it
  // never builds that point. At width 2 a worker claims index 2 only after
  // finishing index 0 or 1, and both are unstable, so the cutoff is already
  // below 2 whichever finishes first.
  const double bomb = std::numeric_limits<double>::denorm_min();
  exp::ScenarioSpec spec = gs_sweep({1.5, 1.6, bomb}, 3000, /*seed=*/3);
  EXPECT_THROW(MulticlusterSimulation(exp::to_simulation_config(spec, bomb)),
               std::invalid_argument);
  for (unsigned width : {1u, 2u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    spec.parallelism = width;
    SweepSeries series;
    ASSERT_NO_THROW(series = run_sweep(spec));
    ASSERT_EQ(series.points.size(), 1u);
    EXPECT_TRUE(series.points[0].result.unstable);
    EXPECT_DOUBLE_EQ(series.max_stable_utilization(), 0.0);
  }
}

TEST(Sweep, ResponseMonotoneInLoadOnAverage) {
  const auto series = run_sweep(gs_sweep({0.15, 0.45}, 6000));
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_LT(series.points[0].result.mean_response(),
            series.points[1].result.mean_response());
}

TEST(Report, PanelPrintsLegendAndRows) {
  std::vector<SweepSeries> series = {run_sweep(gs_sweep({0.2}, 2000))};

  std::ostringstream out;
  print_panel(out, "test panel", series);
  EXPECT_NE(out.str().find("test panel"), std::string::npos);
  EXPECT_NE(out.str().find("GS limit=16"), std::string::npos);
  EXPECT_NE(out.str().find("0.200"), std::string::npos);

  std::ostringstream plot;
  print_ascii_plot(plot, series);
  EXPECT_NE(plot.str().find("GS limit=16"), std::string::npos);
}

TEST(Report, PerformanceOrderPrefersHigherMaxUtilization) {
  SweepSeries good, bad;
  good.label = "LS";
  bad.label = "LP";
  SweepPoint stable;
  stable.target_gross_utilization = 0.5;
  stable.result.unstable = false;
  good.points.push_back(stable);
  SweepPoint low;
  low.target_gross_utilization = 0.3;
  low.result.unstable = false;
  bad.points.push_back(low);
  const auto order = performance_order({bad, good});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // "good" first
}

}  // namespace
}  // namespace mcsim
