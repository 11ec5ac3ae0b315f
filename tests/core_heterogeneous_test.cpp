// Heterogeneous cluster speeds (extension toward the grid setting the
// paper's introduction motivates; the paper itself is homogeneous).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "test_support.hpp"
#include "workload/das_workload.hpp"

namespace mcsim {
namespace {

TEST(ClusterSpeed, StoredAndValidated) {
  Cluster fast(0, 32, 2.0);
  EXPECT_DOUBLE_EQ(fast.speed(), 2.0);
  EXPECT_THROW(Cluster(0, 32, 0.0), std::invalid_argument);
  Cluster default_speed(1, 32);
  EXPECT_DOUBLE_EQ(default_speed.speed(), 1.0);
}

TEST(Multicluster, SlowestSpeedOverAllocation) {
  Multicluster system({32, 32, 32}, {1.0, 0.5, 2.0});
  EXPECT_DOUBLE_EQ(system.slowest_speed({{0, 8}}), 1.0);
  EXPECT_DOUBLE_EQ(system.slowest_speed({{0, 8}, {2, 8}}), 1.0);
  EXPECT_DOUBLE_EQ(system.slowest_speed({{1, 8}, {2, 8}}), 0.5);
  EXPECT_THROW((void)system.slowest_speed({}), std::invalid_argument);
}

TEST(Multicluster, MismatchedSpeedsThrow) {
  EXPECT_THROW(Multicluster({32, 32}, {1.0}), std::invalid_argument);
}

SimulationConfig speed_config(std::vector<double> speeds, double rho = 0.3,
                              std::uint64_t jobs = 8000) {
  auto config = testing::paper_point(PolicyKind::kGS, rho, jobs, /*seed=*/21);
  config.cluster_speeds = std::move(speeds);
  return config;
}

TEST(HeterogeneousEngine, HomogeneousSpeedsMatchDefault) {
  const auto base = run_simulation(speed_config({}));
  const auto explicit_ones = run_simulation(speed_config({1.0, 1.0, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(base.mean_response(), explicit_ones.mean_response());
}

TEST(HeterogeneousEngine, SlowClusterRaisesResponseTimes) {
  const auto uniform = run_simulation(speed_config({1.0, 1.0, 1.0, 1.0}));
  const auto one_slow = run_simulation(speed_config({0.5, 1.0, 1.0, 1.0}));
  ASSERT_FALSE(one_slow.unstable);
  EXPECT_GT(one_slow.mean_response(), uniform.mean_response());
}

TEST(HeterogeneousEngine, FasterClustersReduceResponseTimes) {
  const auto uniform = run_simulation(speed_config({1.0, 1.0, 1.0, 1.0}));
  const auto all_fast = run_simulation(speed_config({2.0, 2.0, 2.0, 2.0}));
  ASSERT_FALSE(all_fast.unstable);
  EXPECT_LT(all_fast.mean_response(), uniform.mean_response());
  // Doubling every speed halves the carried load; the busy fraction drops.
  EXPECT_LT(all_fast.busy_fraction, uniform.busy_fraction);
}

TEST(HeterogeneousEngine, SlowClusterIsBusierPerUnitWork) {
  // Jobs pinned/placed on the slow cluster hold it longer: its busy
  // fraction exceeds the fast clusters'.
  const auto result = run_simulation(speed_config({0.5, 1.0, 1.0, 1.0}, 0.35, 15000));
  ASSERT_EQ(result.per_cluster_busy_fraction.size(), 4u);
  EXPECT_GT(result.per_cluster_busy_fraction[0], result.per_cluster_busy_fraction[1]);
  EXPECT_GT(result.per_cluster_busy_fraction[0], result.per_cluster_busy_fraction[3]);
}

}  // namespace
}  // namespace mcsim
