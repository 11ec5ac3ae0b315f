#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "exp/gnuplot.hpp"
#include "exp/replications.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"

namespace mcsim {
namespace {

SweepSeries tiny_series() {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = {0.2, 0.3};
  spec.sim_jobs = 2000;
  return run_sweep(spec);
}

/// GS replications (limit 16, DAS-s-128) at one load.
exp::ScenarioSpec gs_replications(double utilization, std::uint64_t jobs,
                                  std::uint32_t replications, std::uint64_t base_seed) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kReplications;
  spec.utilization = utilization;
  spec.sim_jobs = jobs;
  spec.replications = replications;
  spec.seed = base_seed;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Gnuplot, WritesDataAndScript) {
  const auto series = tiny_series();
  const std::string dir = ::testing::TempDir();
  const auto files = write_gnuplot_panel(dir, "mcsim_test_panel", "test title", {series});

  const std::string data = slurp(files.data_path);
  EXPECT_NE(data.find("# GS limit=16"), std::string::npos);
  EXPECT_NE(data.find("0.200 "), std::string::npos);

  const std::string script = slurp(files.script_path);
  EXPECT_NE(script.find("set title 'test title'"), std::string::npos);
  EXPECT_NE(script.find("mcsim_test_panel.dat"), std::string::npos);
  EXPECT_NE(script.find("yerrorlines"), std::string::npos);
}

TEST(Gnuplot, OneIndexBlockPerSeries) {
  const auto series = tiny_series();
  const std::string dir = ::testing::TempDir();
  const auto files =
      write_gnuplot_panel(dir, "mcsim_test_panel2", "two series", {series, series});
  const std::string script = slurp(files.script_path);
  EXPECT_NE(script.find("index 0"), std::string::npos);
  EXPECT_NE(script.find("index 1"), std::string::npos);
}

TEST(Gnuplot, EmptyPanelThrows) {
  EXPECT_THROW(write_gnuplot_panel("/tmp", "x", "t", {}), std::invalid_argument);
}

TEST(Gnuplot, UnwritableDirectoryThrows) {
  EXPECT_THROW(write_gnuplot_panel("/nonexistent_dir_xyz", "x", "t", {tiny_series()}),
               std::invalid_argument);
}

TEST(Replications, CombinesIndependentRuns) {
  const auto result = run_replications(gs_replications(0.35, 4000, 5, /*base_seed=*/100));
  EXPECT_EQ(result.stable_replications(), 5u);
  EXPECT_EQ(result.unstable_replications, 0u);
  EXPECT_GT(result.response_ci.mean, 0.0);
  EXPECT_GT(result.response_ci.halfwidth, 0.0);
  EXPECT_NEAR(result.mean_busy_fraction, 0.35, 0.05);
  // Different seeds must produce different means.
  EXPECT_NE(result.replication_means[0], result.replication_means[1]);
}

TEST(Replications, ReplicationCiCoversSingleLongRun) {
  const auto reps = run_replications(gs_replications(0.4, 6000, 8, 200));
  exp::ScenarioSpec single;
  single.sim_jobs = 48000;
  single.seed = 999;
  const auto long_run = run_simulation(exp::to_simulation_config(single, 0.4));
  EXPECT_NEAR(long_run.mean_response(), reps.response_ci.mean,
              reps.response_ci.halfwidth * 3 + 0.1 * long_run.mean_response());
}

TEST(Replications, UnstableRunsExcluded) {
  const auto result = run_replications(gs_replications(1.5, 4000, 3, 1));
  EXPECT_EQ(result.unstable_replications, 3u);
  EXPECT_EQ(result.stable_replications(), 0u);
}

TEST(Replications, ZeroReplicationsThrow) {
  EXPECT_THROW(run_replications(gs_replications(0.3, 1000, 0, 1)), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
