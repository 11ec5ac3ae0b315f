// Validation of the multicluster engine against closed-form queueing
// results: with single-processor jobs and exponential service the model IS
// an M/M/c queue, so the simulated mean response must match Erlang-C.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "queueing.hpp"
#include "workload/distributions.hpp"

namespace mcsim {
namespace {

SimulationConfig mmc_config(std::uint32_t servers, double lambda, double mu,
                            PolicyKind policy, std::uint64_t jobs) {
  SimulationConfig config;
  config.policy = policy;
  config.pipeline = expand_policy(policy);
  if (policy == PolicyKind::kSC) {
    config.cluster_sizes = {servers};
    config.workload.num_clusters = 1;
    config.workload.split_jobs = false;
  } else {
    // Spread the same servers over 4 clusters.
    config.cluster_sizes.assign(4, servers / 4);
    config.workload.num_clusters = 4;
    config.workload.split_jobs = true;
  }
  config.workload.size_distribution = DiscreteDistribution({1.0}, {1.0});
  config.workload.service_distribution = std::make_shared<ExponentialDistribution>(1.0 / mu);
  config.workload.component_limit = 1;
  config.workload.extension_factor = 1.0;
  config.workload.arrival_rate = lambda;
  config.total_jobs = jobs;
  config.seed = 99;
  return config;
}

class MmcValidation : public ::testing::TestWithParam<double> {};

TEST_P(MmcValidation, ScMatchesErlangC) {
  const double rho = GetParam();
  const std::uint32_t c = 8;
  const double mu = 1.0 / 50.0;
  const double lambda = rho * c * mu;
  const auto result = run_simulation(mmc_config(c, lambda, mu, PolicyKind::kSC, 60000));
  ASSERT_FALSE(result.unstable);
  const double expected = queueing::mmc_mean_response(c, lambda, mu);
  EXPECT_NEAR(result.mean_response(), expected, 0.08 * expected) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, MmcValidation, ::testing::Values(0.3, 0.5, 0.7, 0.85),
                         [](const ::testing::TestParamInfo<double>& param_info) {
                           return "rho" +
                                  std::to_string(static_cast<int>(param_info.param * 100));
                         });

TEST(MmcValidationGs, GsWithSingleCpuJobsMatchesErlangC) {
  // 4 clusters x 2 processors with 1-CPU jobs and WF placement is work-
  // conserving, so it is exactly M/M/8 as well.
  const std::uint32_t c = 8;
  const double mu = 1.0 / 50.0;
  const double lambda = 0.7 * c * mu;
  const auto result = run_simulation(mmc_config(c, lambda, mu, PolicyKind::kGS, 60000));
  ASSERT_FALSE(result.unstable);
  const double expected = queueing::mmc_mean_response(c, lambda, mu);
  EXPECT_NEAR(result.mean_response(), expected, 0.08 * expected);
}

TEST(MmcValidationLs, LsWithSingleCpuJobsIsSlowerThanMMc) {
  // Under LS, 1-CPU jobs are pinned to their origin cluster: four separate
  // M/M/2 queues instead of one M/M/8 — measurably worse at equal load.
  const std::uint32_t c = 8;
  const double mu = 1.0 / 50.0;
  const double lambda = 0.7 * c * mu;
  const auto pooled = run_simulation(mmc_config(c, lambda, mu, PolicyKind::kGS, 60000));
  const auto pinned = run_simulation(mmc_config(c, lambda, mu, PolicyKind::kLS, 60000));
  ASSERT_FALSE(pinned.unstable);
  EXPECT_GT(pinned.mean_response(), pooled.mean_response());
  // And it should agree with the M/M/2 closed form per cluster.
  const double expected = queueing::mmc_mean_response(2, lambda / 4.0, mu);
  EXPECT_NEAR(pinned.mean_response(), expected, 0.10 * expected);
}

TEST(Mg1Validation, ScSingleServerMatchesPollaczekKhinchine) {
  // One processor, 1-CPU jobs, lognormal service: M/G/1.
  const double mean_service = 40.0;
  const double cv = 1.5;
  const double lambda = 0.6 / mean_service;
  SimulationConfig config;
  config.policy = PolicyKind::kSC;
  config.pipeline = expand_policy(PolicyKind::kSC);
  config.cluster_sizes = {1};
  config.workload.num_clusters = 1;
  config.workload.split_jobs = false;
  config.workload.size_distribution = DiscreteDistribution({1.0}, {1.0});
  auto service = std::make_shared<LognormalDistribution>(
      LognormalDistribution::from_mean_cv(mean_service, cv));
  config.workload.service_distribution = service;
  config.workload.component_limit = 1;
  config.workload.extension_factor = 1.0;
  config.workload.arrival_rate = lambda;
  config.total_jobs = 120000;
  config.seed = 4242;
  const auto result = run_simulation(config);
  ASSERT_FALSE(result.unstable);
  const double expected =
      queueing::mg1_mean_response(lambda, service->mean(), service->variance());
  EXPECT_NEAR(result.mean_response(), expected, 0.12 * expected);
}

}  // namespace
}  // namespace mcsim
