#include "workload/job_splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

namespace mcsim {
namespace {

TEST(ComponentCount, PaperWorkedExampleSize64) {
  // Sect. 3.3: the size-64 job (19% of the log) under the three limits.
  EXPECT_EQ(component_count(64, 16, 4), 4u);
  EXPECT_EQ(component_count(64, 24, 4), 3u);
  EXPECT_EQ(component_count(64, 32, 4), 2u);
}

TEST(SplitJob, PaperWorkedExampleSize64) {
  EXPECT_EQ(split_job(64, 16, 4), (std::vector<std::uint32_t>{16, 16, 16, 16}));
  EXPECT_EQ(split_job(64, 24, 4), (std::vector<std::uint32_t>{22, 21, 21}));
  EXPECT_EQ(split_job(64, 32, 4), (std::vector<std::uint32_t>{32, 32}));
}

TEST(SplitJob, SmallJobsStaySingleComponent) {
  EXPECT_EQ(split_job(1, 16, 4), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(split_job(16, 16, 4), (std::vector<std::uint32_t>{16}));
  EXPECT_EQ(split_job(24, 24, 4), (std::vector<std::uint32_t>{24}));
  EXPECT_EQ(split_job(32, 32, 4), (std::vector<std::uint32_t>{32}));
}

TEST(SplitJob, JustOverTheLimitSplitsInTwo) {
  EXPECT_EQ(split_job(17, 16, 4), (std::vector<std::uint32_t>{9, 8}));
  EXPECT_EQ(split_job(25, 24, 4), (std::vector<std::uint32_t>{13, 12}));
  EXPECT_EQ(split_job(33, 32, 4), (std::vector<std::uint32_t>{17, 16}));
}

TEST(SplitJob, ClusterCountCapsComponents) {
  // Size 128 with limit 16 would want 8 components but is capped at 4
  // clusters, so components exceed the limit (paper Sect. 2.4).
  EXPECT_EQ(split_job(128, 16, 4), (std::vector<std::uint32_t>{32, 32, 32, 32}));
  EXPECT_EQ(split_job(100, 16, 4), (std::vector<std::uint32_t>{25, 25, 25, 25}));
}

TEST(SplitJob, FullSystemJob) {
  EXPECT_EQ(split_job(128, 32, 4), (std::vector<std::uint32_t>{32, 32, 32, 32}));
}

TEST(SplitJob, SingleClusterSystemNeverSplits) {
  EXPECT_EQ(split_job(100, 16, 1), (std::vector<std::uint32_t>{100}));
}

TEST(SplitJob, InvalidArgumentsThrow) {
  EXPECT_THROW(split_job(0, 16, 4), std::invalid_argument);
  EXPECT_THROW(split_job(10, 0, 4), std::invalid_argument);
  EXPECT_THROW(split_job(10, 16, 0), std::invalid_argument);
}

// ---- Property-based sweep over all sizes x limits x cluster counts. ----

class SplitterProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(SplitterProperty, InvariantsHoldForAllSizes) {
  const auto [limit, clusters] = GetParam();
  for (std::uint32_t size = 1; size <= 128; ++size) {
    const auto components = split_job(size, limit, clusters);
    const std::uint32_t n = component_count(size, limit, clusters);
    ASSERT_EQ(components.size(), n) << "size=" << size;

    // Components sum to the total size.
    const std::uint32_t sum = std::accumulate(components.begin(), components.end(), 0u);
    EXPECT_EQ(sum, size) << "size=" << size;

    // Non-increasing and as equal as possible (max - min <= 1).
    for (std::size_t i = 1; i < components.size(); ++i) {
      EXPECT_GE(components[i - 1], components[i]) << "size=" << size;
    }
    EXPECT_LE(components.front() - components.back(), 1u) << "size=" << size;

    // All components positive.
    EXPECT_GT(components.back(), 0u) << "size=" << size;

    // Component count never exceeds the cluster count.
    EXPECT_LE(components.size(), clusters) << "size=" << size;

    // The limit is respected unless the cluster cap forced the split short.
    const bool capped = (size + limit - 1) / limit > clusters;
    if (!capped) {
      EXPECT_LE(components.front(), limit) << "size=" << size;
    }

    // Minimality: one fewer component would violate the limit (when not
    // already a single component and not capped).
    if (n > 1 && !capped) {
      EXPECT_GT((size + n - 2) / (n - 1), limit) << "size=" << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LimitsAndClusters, SplitterProperty,
    ::testing::Combine(::testing::Values(8u, 16u, 24u, 32u, 64u),
                       ::testing::Values(2u, 4u, 5u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint32_t, std::uint32_t>>& param_info) {
      return "limit" + std::to_string(std::get<0>(param_info.param)) + "_clusters" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(SplitJob, Sect33FitArgument) {
  // The packing argument of Sect. 3.3: in an empty 4x32 system with one
  // size-64 job placed, a second size-64 job still fits under limits 16 and
  // 32 but NOT under limit 24.
  auto remaining_after = [](const std::vector<std::uint32_t>& components) {
    std::vector<std::uint32_t> idle{32, 32, 32, 32};
    for (std::size_t i = 0; i < components.size(); ++i) idle[i] -= components[i];
    return idle;
  };
  auto fits = [](std::vector<std::uint32_t> components, std::vector<std::uint32_t> idle) {
    std::sort(idle.rbegin(), idle.rend());
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (components[i] > idle[i]) return false;
    }
    return true;
  };
  EXPECT_TRUE(fits(split_job(64, 16, 4), remaining_after(split_job(64, 16, 4))));
  EXPECT_TRUE(fits(split_job(64, 32, 4), remaining_after(split_job(64, 32, 4))));
  EXPECT_FALSE(fits(split_job(64, 24, 4), remaining_after(split_job(64, 24, 4))));
}

}  // namespace
}  // namespace mcsim
