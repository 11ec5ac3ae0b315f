// The constant-backlog mode of the engine (paper Sect. 4, Table 3): the
// busy fraction of a run that never drains is the maximal gross
// utilization.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "exp/scenario_spec.hpp"
#include "workload/das_workload.hpp"

namespace mcsim {
namespace {

SimulationConfig quick_saturation(PolicyKind policy, std::uint32_t limit,
                                  std::uint64_t completions = 6000) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSaturation;
  spec.policy = policy;
  spec.component_limit = limit;
  spec.saturation_completions = completions;
  spec.seed = 11;
  return exp::to_simulation_config(spec);
}

TEST(Saturation, GsMaximalUtilizationIsBelowOne) {
  const auto result = run_simulation(quick_saturation(PolicyKind::kGS, 16));
  EXPECT_GT(result.busy_fraction, 0.3);
  EXPECT_LT(result.busy_fraction, 0.9);
  EXPECT_EQ(result.completed_jobs, 6000u);
  EXPECT_FALSE(result.unstable);
}

TEST(Saturation, NetBelowGrossForMulticluster) {
  const auto result = run_simulation(quick_saturation(PolicyKind::kGS, 16));
  EXPECT_LT(result.carried_net_utilization, result.busy_fraction);
}

TEST(Saturation, GrossNetRatioMatchesClosedForm) {
  const auto result = run_simulation(quick_saturation(PolicyKind::kGS, 16, 20000));
  const double expected_ratio = gross_net_ratio(das_s_128(), 16, 4, 1.25);
  EXPECT_NEAR(result.busy_fraction / result.carried_net_utilization, expected_ratio, 0.03);
}

TEST(Saturation, ScGrossEqualsNet) {
  const auto result = run_simulation(quick_saturation(PolicyKind::kSC, 16));
  EXPECT_NEAR(result.busy_fraction, result.carried_net_utilization, 0.02);
}

TEST(Saturation, DeterministicForSameSeed) {
  const auto a = run_simulation(quick_saturation(PolicyKind::kGS, 24));
  const auto b = run_simulation(quick_saturation(PolicyKind::kGS, 24));
  EXPECT_DOUBLE_EQ(a.busy_fraction, b.busy_fraction);
}

TEST(Saturation, Limit24PacksWorstForGs) {
  // Sect. 3.3: limit 24 splits the dominant size-64 jobs as (22,21,21),
  // which packs far worse than (16,16,16,16) or (32,32).
  const auto gross = [](std::uint32_t limit) {
    return run_simulation(quick_saturation(PolicyKind::kGS, limit, 12000)).busy_fraction;
  };
  const double u24 = gross(24);
  EXPECT_LT(u24, gross(16));
  EXPECT_LT(u24, gross(32));
}

TEST(Saturation, RunTwiceThrows) {
  MulticlusterSimulation sim(quick_saturation(PolicyKind::kGS, 16, 500));
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Saturation, InvalidConfigThrows) {
  // A constant backlog draws synthetic jobs; a trace cannot supply it.
  auto config = quick_saturation(PolicyKind::kGS, 16);
  config.trace_workload = std::make_shared<TraceWorkloadConfig>();
  try {
    MulticlusterSimulation simulation(config);
    FAIL() << "a trace-backed backlog was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("constant backlog"), std::string::npos)
        << error.what();
  }
}

TEST(Saturation, BacklogKeepsSystemBusy) {
  // With a constant backlog the system should never be close to idle:
  // busy fraction well above what an unsaturated run would show.
  const auto result = run_simulation(quick_saturation(PolicyKind::kSC, 16));
  EXPECT_GT(result.busy_fraction, 0.4);
}

TEST(Saturation, BackfillingRaisesTheMaximum) {
  // Head-of-line blocking by wide jobs is what caps GS below 1 (Sect. 3.2);
  // a backfilling stage fills the holes, so the ceiling itself rises.
  const double fcfs = run_simulation(quick_saturation(PolicyKind::kGS, 16)).busy_fraction;
  for (BackfillMode backfill : {BackfillMode::kEasy, BackfillMode::kConservative}) {
    auto config = quick_saturation(PolicyKind::kGS, 16);
    config.pipeline.backfill = backfill;
    const auto result = run_simulation(config);
    EXPECT_EQ(result.policy, scheduler_display_name(PolicyKind::kGS, config.pipeline));
    EXPECT_GT(result.busy_fraction, fcfs + 0.05) << result.policy;
  }
}

TEST(Saturation, SlowClusterWidensGrossNetGap) {
  // Heterogeneous speeds: a half-speed cluster holds its processors twice
  // as long for the same net work, so net falls further below gross.
  auto homogeneous = quick_saturation(PolicyKind::kGS, 16);
  auto slow = homogeneous;
  slow.cluster_speeds = {1.0, 1.0, 1.0, 0.5};
  const auto base = run_simulation(homogeneous);
  const auto result = run_simulation(slow);
  EXPECT_EQ(result.completed_jobs, base.completed_jobs);
  EXPECT_LT(result.carried_net_utilization / result.busy_fraction,
            base.carried_net_utilization / base.busy_fraction);
}

}  // namespace
}  // namespace mcsim
