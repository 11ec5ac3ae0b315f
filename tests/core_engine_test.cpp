#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "workload/das_workload.hpp"

namespace mcsim {
namespace {

SimulationConfig quick_config(PolicyKind policy, double rho, std::uint64_t jobs = 4000,
                              std::uint64_t seed = 7) {
  return testing::paper_point(policy, rho, jobs, seed);
}

TEST(Engine, CompletesAllJobsAtLowLoad) {
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.2));
  EXPECT_FALSE(result.unstable);
  EXPECT_EQ(result.completed_jobs, 4000u);
  EXPECT_GT(result.measured_jobs, 3000u);
  for (std::size_t length : result.final_queue_lengths) EXPECT_EQ(length, 0u);
}

TEST(Engine, ResponseAtLeastService) {
  // Mean response >= mean gross service time (response includes waiting).
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.3));
  EXPECT_GT(result.mean_response(), das_t_900()->mean());
  EXPECT_GE(result.response_all.min(), 1.0);
}

TEST(Engine, WaitPlusServiceEqualsResponse) {
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.3));
  // E[response] = E[wait] + E[gross service]; gross service mean is between
  // 1x and 1.25x the net mean.
  const double service_part = result.response_all.mean() - result.wait_all.mean();
  EXPECT_GT(service_part, das_t_900()->mean() * 0.95);
  EXPECT_LT(service_part, das_t_900()->mean() * 1.30);
}

TEST(Engine, OfferedLoadMatchesTarget) {
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.4, 20000));
  EXPECT_NEAR(result.offered_gross_utilization, 0.4, 0.04);
  // Net is gross / ratio for limit 16.
  const double ratio = gross_net_ratio(das_s_128(), 16, 4, 1.25);
  EXPECT_NEAR(result.offered_net_utilization, 0.4 / ratio, 0.04);
}

TEST(Engine, BusyFractionTracksOfferedLoadWhenStable) {
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.3, 20000));
  EXPECT_NEAR(result.busy_fraction, 0.3, 0.05);
}

TEST(Engine, ResponseGrowsWithLoad) {
  const auto lo = run_simulation(quick_config(PolicyKind::kGS, 0.2, 8000));
  const auto hi = run_simulation(quick_config(PolicyKind::kGS, 0.45, 8000));
  EXPECT_GT(hi.mean_response(), lo.mean_response());
}

TEST(Engine, DeterministicForSameSeed) {
  const auto a = run_simulation(quick_config(PolicyKind::kLS, 0.3));
  const auto b = run_simulation(quick_config(PolicyKind::kLS, 0.3));
  EXPECT_DOUBLE_EQ(a.mean_response(), b.mean_response());
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
}

TEST(Engine, SeedsChangeTheRun) {
  const auto a = run_simulation(quick_config(PolicyKind::kLS, 0.3, 4000, 1));
  const auto b = run_simulation(quick_config(PolicyKind::kLS, 0.3, 4000, 2));
  EXPECT_NE(a.mean_response(), b.mean_response());
}

TEST(Engine, OverloadIsFlaggedUnstable) {
  auto config = quick_config(PolicyKind::kGS, 1.4, 30000);
  config.instability_queue_limit = 500;
  const auto result = run_simulation(config);
  EXPECT_TRUE(result.unstable);
  EXPECT_LT(result.completed_jobs, 30000u);
}

TEST(Engine, ScRunsTotalRequestsOnSingleCluster) {
  const auto result = run_simulation(quick_config(PolicyKind::kSC, 0.3));
  EXPECT_EQ(result.policy, "SC");
  EXPECT_FALSE(result.unstable);
  // SC has no wide-area extension: offered gross == offered net.
  EXPECT_NEAR(result.offered_gross_utilization, result.offered_net_utilization, 1e-12);
}

TEST(Engine, AllPoliciesRunStablyAtModerateLoad) {
  for (PolicyKind policy :
       {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kSC}) {
    const auto result = run_simulation(quick_config(policy, 0.25));
    EXPECT_FALSE(result.unstable) << policy_name(policy);
    EXPECT_EQ(result.completed_jobs, 4000u) << policy_name(policy);
    EXPECT_GT(result.mean_response(), 0.0) << policy_name(policy);
  }
}

TEST(Engine, LpSplitsResponsesByQueueClass) {
  const auto result = run_simulation(quick_config(PolicyKind::kLP, 0.35, 8000));
  EXPECT_GT(result.response_local.count(), 0u);
  EXPECT_GT(result.response_global.count(), 0u);
  EXPECT_EQ(result.response_local.count() + result.response_global.count(),
            result.response_all.count());
}

TEST(Engine, LsJobsAreAllLocalClass) {
  const auto result = run_simulation(quick_config(PolicyKind::kLS, 0.3));
  EXPECT_EQ(result.response_global.count(), 0u);
  EXPECT_EQ(result.response_local.count(), result.response_all.count());
}

TEST(Engine, CiAndP95Populated) {
  const auto result = run_simulation(quick_config(PolicyKind::kGS, 0.3, 12000));
  EXPECT_GT(result.response_ci.halfwidth, 0.0);
  EXPECT_GT(result.response_p95, result.mean_response());
}

TEST(Engine, RunTwiceThrows) {
  MulticlusterSimulation sim(quick_config(PolicyKind::kGS, 0.2, 500));
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Engine, MismatchedWorkloadClustersThrow) {
  auto config = quick_config(PolicyKind::kGS, 0.2);
  config.workload.num_clusters = 2;  // system has 4
  EXPECT_THROW(MulticlusterSimulation{config}, std::invalid_argument);
}

TEST(Engine, ScWithSplitJobsThrows) {
  auto config = quick_config(PolicyKind::kSC, 0.2);
  config.workload.split_jobs = true;
  EXPECT_THROW(MulticlusterSimulation{config}, std::invalid_argument);
}

TEST(Engine, ZeroWarmupMeasuresEverything) {
  auto config = quick_config(PolicyKind::kGS, 0.2, 2000);
  config.warmup_fraction = 0.0;
  const auto result = run_simulation(config);
  EXPECT_EQ(result.measured_jobs, 2000u);
}

}  // namespace
}  // namespace mcsim
