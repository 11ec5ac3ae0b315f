#include <gtest/gtest.h>

#include <set>

#include "cluster/placement.hpp"
#include "core/engine.hpp"
#include "workload/das_workload.hpp"
#include "workload/request.hpp"
#include "workload/workload.hpp"

namespace mcsim {
namespace {

TEST(RequestType, NamesRoundTrip) {
  for (RequestType type : {RequestType::kOrdered, RequestType::kUnordered,
                           RequestType::kFlexible, RequestType::kTotal}) {
    EXPECT_EQ(parse_request_type(request_type_name(type)), type);
  }
  EXPECT_THROW(parse_request_type("rigid"), std::invalid_argument);
}

TEST(PlaceOrdered, RespectsNamedClusters) {
  const auto alloc = place_ordered({10, 8}, {2, 0}, {32, 32, 32, 32});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ((*alloc)[0].cluster, 2u);
  EXPECT_EQ((*alloc)[0].processors, 10u);
  EXPECT_EQ((*alloc)[1].cluster, 0u);
}

TEST(PlaceOrdered, FailsWhenNamedClusterFull) {
  // Unordered would fit (choose cluster 1), ordered may not.
  EXPECT_FALSE(place_ordered({10}, {0}, {4, 32}).has_value());
  EXPECT_TRUE(place_components({10}, {4, 32}).has_value());
}

TEST(PlaceOrdered, TwoComponentsOnSameClusterShareIdle) {
  EXPECT_TRUE(place_ordered({16, 16}, {0, 0}, {32, 0}).has_value());
  EXPECT_FALSE(place_ordered({17, 16}, {0, 0}, {32, 0}).has_value());
}

TEST(PlaceOrdered, MismatchedListsThrow) {
  EXPECT_THROW(place_ordered({10, 8}, {0}, {32, 32}), std::invalid_argument);
  EXPECT_THROW(place_ordered({10}, {7}, {32, 32}), std::invalid_argument);
}

TEST(PlaceFlexible, PrefersSingleCluster) {
  const auto alloc = place_flexible(20, {32, 8, 16, 4});
  ASSERT_TRUE(alloc.has_value());
  ASSERT_EQ(alloc->size(), 1u);
  EXPECT_EQ((*alloc)[0].cluster, 0u);
}

TEST(PlaceFlexible, SpreadsWhenNoSingleClusterFits) {
  const auto alloc = place_flexible(40, {32, 8, 16, 4});
  ASSERT_TRUE(alloc.has_value());
  std::uint32_t total = 0;
  std::set<ClusterId> used;
  for (const auto& p : *alloc) {
    total += p.processors;
    EXPECT_TRUE(used.insert(p.cluster).second);
  }
  EXPECT_EQ(total, 40u);
}

TEST(PlaceFlexible, FitsIffTotalIdleSuffices) {
  EXPECT_TRUE(place_flexible(60, {32, 8, 16, 4}).has_value());
  EXPECT_FALSE(place_flexible(61, {32, 8, 16, 4}).has_value());
}

TEST(PlaceFlexible, ZeroSizeThrows) {
  EXPECT_THROW(place_flexible(0, {32}), std::invalid_argument);
}

WorkloadConfig request_config(RequestType type) {
  WorkloadConfig config;
  config.size_distribution = das_s_128();
  config.service_distribution = das_t_900();
  config.component_limit = 16;
  config.num_clusters = 4;
  config.extension_factor = 1.25;
  config.arrival_rate = 0.05;
  config.request_type = type;
  return config;
}

TEST(OrderedWorkload, ComponentsGetDistinctClusters) {
  WorkloadGenerator gen(request_config(RequestType::kOrdered), 5);
  for (int i = 0; i < 2000; ++i) {
    const JobSpec job = gen.next_body();
    ASSERT_EQ(job.ordered_clusters.size(), job.components.size());
    std::set<std::uint32_t> clusters(job.ordered_clusters.begin(),
                                     job.ordered_clusters.end());
    EXPECT_EQ(clusters.size(), job.components.size());
    for (std::uint32_t c : job.ordered_clusters) EXPECT_LT(c, 4u);
    EXPECT_EQ(job.wide_area, job.components.size() > 1);
  }
}

TEST(OrderedWorkload, ClusterAssignmentIsUniform) {
  WorkloadGenerator gen(request_config(RequestType::kOrdered), 7);
  std::array<int, 4> first_cluster{};
  int multi = 0;
  for (int i = 0; i < 40000; ++i) {
    const JobSpec job = gen.next_body();
    if (job.components.size() > 1) {
      ++first_cluster[job.ordered_clusters[0]];
      ++multi;
    }
  }
  for (int count : first_cluster) {
    EXPECT_NEAR(static_cast<double>(count) / multi, 0.25, 0.02);
  }
}

TEST(FlexibleWorkload, SingleComponentCarriesTotal) {
  WorkloadGenerator gen(request_config(RequestType::kFlexible), 9);
  for (int i = 0; i < 2000; ++i) {
    const JobSpec job = gen.next_body();
    ASSERT_EQ(job.components.size(), 1u);
    EXPECT_EQ(job.components[0], job.total_size);
    EXPECT_EQ(job.wide_area, job.total_size > 32);
    if (job.wide_area) {
      EXPECT_NEAR(job.gross_service_time, job.service_time * 1.25, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(job.gross_service_time, job.service_time);
    }
  }
}

TEST(FlexibleWorkload, MeanExtendedSizeUsesThreshold) {
  const auto config = request_config(RequestType::kFlexible);
  // Independent recomputation.
  double expected = 0.0;
  const auto& dist = config.size_distribution;
  for (std::size_t i = 0; i < dist.values().size(); ++i) {
    expected += dist.probabilities()[i] * dist.values()[i] *
                (dist.values()[i] > 32.0 ? 1.25 : 1.0);
  }
  EXPECT_NEAR(config.mean_extended_size(), expected, 1e-12);
}

class RequestTypeSimulation : public ::testing::TestWithParam<RequestType> {};

TEST_P(RequestTypeSimulation, RunsStablyAtLowLoad) {
  SimulationConfig config;
  config.policy = PolicyKind::kGS;
  config.cluster_sizes = {32, 32, 32, 32};
  config.workload = request_config(GetParam());
  config.workload.arrival_rate = config.workload.rate_for_gross_utilization(0.3, 128);
  config.total_jobs = 6000;
  config.seed = 21;
  const auto result = run_simulation(config);
  EXPECT_FALSE(result.unstable);
  EXPECT_EQ(result.completed_jobs, 6000u);
}

INSTANTIATE_TEST_SUITE_P(Types, RequestTypeSimulation,
                         ::testing::Values(RequestType::kOrdered, RequestType::kUnordered,
                                           RequestType::kFlexible),
                         [](const ::testing::TestParamInfo<RequestType>& param_info) {
                           return request_type_name(param_info.param);
                         });

TEST(RequestTypeComparison, FlexibilityHelpsOrderingHurts) {
  // The known result from the authors' earlier studies [6,7]: at equal
  // load, flexible requests outperform unordered, which outperform ordered
  // (every constraint on placement costs packing opportunities).
  auto response_for = [](RequestType type) {
    SimulationConfig config;
    config.policy = PolicyKind::kGS;
    config.cluster_sizes = {32, 32, 32, 32};
    config.workload = request_config(type);
    config.workload.arrival_rate = config.workload.rate_for_gross_utilization(0.55, 128);
    config.total_jobs = 20000;
    config.seed = 33;
    const auto result = run_simulation(config);
    return result.unstable ? std::numeric_limits<double>::infinity()
                           : result.mean_response();
  };
  const double ordered = response_for(RequestType::kOrdered);
  const double unordered = response_for(RequestType::kUnordered);
  const double flexible = response_for(RequestType::kFlexible);
  EXPECT_LT(flexible, unordered);
  EXPECT_LT(unordered, ordered);
}

}  // namespace
}  // namespace mcsim
