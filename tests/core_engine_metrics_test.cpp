// Metric plumbing and conservation-law tests for the engine: Little's law,
// size-class breakdown, and cross-policy invariants swept as properties.
#include <gtest/gtest.h>

#include <tuple>

#include "core/engine.hpp"
#include "workload/das_workload.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

TEST(EngineMetrics, LittlesLawHoldsForWaitingJobs) {
  // Mean number waiting == arrival rate x mean wait (Little), within noise.
  const auto config = testing::paper_point(PolicyKind::kGS, 0.5, 40000, 17);
  const auto result = run_simulation(config);
  ASSERT_FALSE(result.unstable);
  const double expected = config.workload.arrival_rate * result.wait_all.mean();
  EXPECT_NEAR(result.mean_queue_length, expected, 0.15 * expected + 0.05);
}

TEST(EngineMetrics, QueueLengthZeroAtTrivialLoad) {
  const auto result = run_simulation(testing::paper_point(PolicyKind::kGS, 0.05, 4000, 3));
  EXPECT_LT(result.mean_queue_length, 0.1);
}

TEST(EngineMetrics, SizeClassesPartitionAllJobs) {
  const auto result = run_simulation(testing::paper_point(PolicyKind::kLS, 0.4, 10000, 5));
  EXPECT_EQ(result.response_small.count() + result.response_medium.count() +
                result.response_large.count(),
            result.response_all.count());
  // DAS-s-128: ~51% small (<=16), ~47% medium, ~1-2% large (>64).
  const double total = static_cast<double>(result.response_all.count());
  EXPECT_NEAR(static_cast<double>(result.response_small.count()) / total, 0.513, 0.05);
  EXPECT_NEAR(static_cast<double>(result.response_large.count()) / total, 0.018, 0.01);
}

TEST(EngineMetrics, LargeJobsWaitLongestUnderFcfs) {
  // The Sect. 3.2 effect: jobs needing (almost) the whole machine pay by
  // far the largest response times under single-queue FCFS.
  const auto result = run_simulation(testing::paper_point(PolicyKind::kSC, 0.6, 30000, 7));
  ASSERT_FALSE(result.unstable);
  ASSERT_GT(result.response_large.count(), 50u);
  EXPECT_GT(result.response_large.mean(), result.response_small.mean());
  EXPECT_GT(result.response_large.mean(), result.response_medium.mean());
}

// Cross-policy property sweep: conservation and sanity invariants that must
// hold for every policy at every stable load and seed.
class EngineInvariants
    : public ::testing::TestWithParam<std::tuple<PolicyKind, double, std::uint64_t>> {};

TEST_P(EngineInvariants, ConservationAndSanity) {
  const auto [policy, rho, seed] = GetParam();
  const auto config = testing::paper_point(policy, rho, 6000, seed);
  const auto result = run_simulation(config);
  if (result.unstable) GTEST_SKIP() << "beyond saturation at this seed";

  // Every arrival completed; queues drained.
  EXPECT_EQ(result.completed_jobs, config.total_jobs);
  for (std::size_t len : result.final_queue_lengths) EXPECT_EQ(len, 0u);

  // Responses bound waits; both non-negative.
  EXPECT_GE(result.wait_all.min(), 0.0);
  EXPECT_GE(result.response_all.min(), result.wait_all.min());
  EXPECT_GE(result.response_all.mean(), result.wait_all.mean());

  // Utilizations are proper fractions and ordered gross >= net.
  EXPECT_GT(result.offered_gross_utilization, 0.0);
  EXPECT_LE(result.offered_gross_utilization, 1.0);
  EXPECT_GE(result.offered_gross_utilization, result.offered_net_utilization - 1e-12);
  EXPECT_GE(result.busy_fraction, 0.0);
  EXPECT_LE(result.busy_fraction, 1.0);

  // Local/global breakdown partitions the measured jobs.
  EXPECT_EQ(result.response_local.count() + result.response_global.count(),
            result.response_all.count());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesLoadsSeeds, EngineInvariants,
    ::testing::Combine(::testing::Values(PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP,
                                         PolicyKind::kSC),
                       ::testing::Values(0.2, 0.45),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<std::tuple<PolicyKind, double, std::uint64_t>>&
           param_info) {
      return std::string(policy_name(std::get<0>(param_info.param))) + "_rho" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param) * 100)) + "_seed" +
             std::to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace mcsim
