#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "workload/arrival.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"
#include "workload/workload.hpp"

namespace mcsim {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig config;
  config.size_distribution = das_s_128();
  config.service_distribution = das_t_900();
  config.component_limit = 16;
  config.num_clusters = 4;
  config.extension_factor = 1.25;
  config.arrival_rate = 0.05;
  return config;
}

TEST(PeriodicPoissonProcess, RespectsProfile) {
  // Profile 1 during the first half of the period, ~0 in the second half:
  // nearly all arrivals land in the first half.
  auto profile = +[](double t) { return t < 50.0 ? 1.0 : 0.01; };
  PeriodicPoissonProcess process(1.0, 100.0, profile);
  Rng rng(2);
  int first_half = 0, total = 0;
  double now = 0.0;
  for (int i = 0; i < 20000; ++i) {
    now += process.next_interarrival(now, rng);
    if (std::fmod(now, 100.0) < 50.0) ++first_half;
    ++total;
  }
  EXPECT_GT(static_cast<double>(first_half) / total, 0.9);
}

TEST(PeriodicPoissonProcess, MeanRateIsProfileAverage) {
  auto profile = +[](double) { return 0.5; };
  PeriodicPoissonProcess process(2.0, 100.0, profile);
  EXPECT_NEAR(process.rate(), 1.0, 0.01);
}

TEST(ArrivalRateForUtilization, InvertsTheLoadFormula) {
  // rho = lambda * E[ext_size] * E[service] / P.
  const double lambda = arrival_rate_for_gross_utilization(0.6, 128, 25.0, 160.0);
  EXPECT_NEAR(lambda * 25.0 * 160.0 / 128.0, 0.6, 1e-12);
}

TEST(WorkloadGenerator, ArrivalTimesStrictlyIncrease) {
  WorkloadGenerator gen(base_config(), 7);
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const JobSpec job = gen.next();
    EXPECT_GT(job.arrival_time, last);
    last = job.arrival_time;
  }
}

TEST(WorkloadGenerator, ArrivalRateRealized) {
  auto config = base_config();
  config.arrival_rate = 0.1;
  WorkloadGenerator gen(config, 11);
  double last = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) last = gen.next().arrival_time;
  EXPECT_NEAR(kN / last, 0.1, 0.005);
}

TEST(WorkloadGenerator, ComponentsFollowSplitter) {
  WorkloadGenerator gen(base_config(), 13);
  for (int i = 0; i < 2000; ++i) {
    const JobSpec job = gen.next();
    std::uint32_t sum = 0;
    for (std::uint32_t c : job.components) sum += c;
    EXPECT_EQ(sum, job.total_size);
    EXPECT_LE(job.components.size(), 4u);
    // Gross service extended exactly for multi-component jobs.
    if (job.components.size() > 1) {
      EXPECT_NEAR(job.gross_service_time, job.service_time * 1.25, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(job.gross_service_time, job.service_time);
    }
  }
}

// The generator splits each support value once, at construction; every
// job of that size copies the entry. Each entry must be split_job_into's
// split of the value, for both paper distributions at each limit.
TEST(WorkloadGenerator, SizeTableMatchesSplitterForEveryValue) {
  const std::pair<const char*, DiscreteDistribution> models[] = {{"das-s-128", das_s_128()},
                                                                 {"das-s-64", das_s_64()}};
  for (const auto& [model, sizes] : models) {
    for (std::uint32_t limit : {16u, 24u, 32u}) {
      SCOPED_TRACE(::testing::Message() << model << ", limit " << limit);
      auto config = base_config();
      config.size_distribution = sizes;
      config.component_limit = limit;
      WorkloadGenerator gen(config, 3);
      const auto& table = gen.size_table();
      ASSERT_EQ(table.size(), sizes.support_size());
      for (std::size_t i = 0; i < table.size(); ++i) {
        ASSERT_GT(sizes.probabilities()[i], 0.0);
        const auto total = static_cast<std::uint32_t>(sizes.values()[i]);
        std::vector<std::uint32_t> expected;
        split_job_into(total, limit, 4, expected);
        EXPECT_EQ(table[i].total_size, total);
        EXPECT_EQ(table[i].components, expected) << "size " << total;
        EXPECT_EQ(table[i].wide_area, expected.size() > 1) << "size " << total;
      }
    }
  }
}

TEST(WorkloadGenerator, SizeTableForTotalAndFlexibleRequests) {
  auto total = base_config();
  total.split_jobs = false;
  total.num_clusters = 1;
  auto flexible = base_config();
  flexible.request_type = RequestType::kFlexible;
  flexible.flexible_local_threshold = 32;
  for (const WorkloadConfig& config : {total, flexible}) {
    WorkloadGenerator gen(config, 5);
    const auto& values = config.size_distribution.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto size = static_cast<std::uint32_t>(values[i]);
      const auto& entry = gen.size_table()[i];
      EXPECT_EQ(entry.components, std::vector<std::uint32_t>{size});
      EXPECT_EQ(entry.wide_area, config.split_jobs && size > 32u);
    }
  }
}

// Only values that can be drawn are split: a size of probability 0, which
// split_job_into would refuse, neither throws nor is ever drawn.
TEST(WorkloadGenerator, ZeroProbabilitySizesAreNeverSplit) {
  auto config = base_config();
  config.size_distribution = DiscreteDistribution({0.0, 8.0, 40.0}, {0.0, 1.0, 1.0});
  WorkloadGenerator gen(config, 9);
  EXPECT_TRUE(gen.size_table()[0].components.empty());
  for (int i = 0; i < 2000; ++i) EXPECT_NE(gen.next().total_size, 0u);
}

TEST(WorkloadGenerator, TotalRequestsWhenSplitDisabled) {
  auto config = base_config();
  config.split_jobs = false;
  config.num_clusters = 1;
  WorkloadGenerator gen(config, 17);
  for (int i = 0; i < 500; ++i) {
    const JobSpec job = gen.next();
    ASSERT_EQ(job.components.size(), 1u);
    EXPECT_EQ(job.components[0], job.total_size);
    EXPECT_DOUBLE_EQ(job.gross_service_time, job.service_time);
  }
}

TEST(WorkloadGenerator, BalancedQueueAssignment) {
  WorkloadGenerator gen(base_config(), 19);
  std::map<std::uint32_t, int> counts;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[gen.next().origin_queue];
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [queue, count] : counts) {
    EXPECT_NEAR(count / double(kN), 0.25, 0.01) << "queue " << queue;
  }
}

TEST(WorkloadGenerator, UnbalancedQueueAssignment) {
  auto config = base_config();
  config.queue_weights = {0.4, 0.2, 0.2, 0.2};
  WorkloadGenerator gen(config, 23);
  std::map<std::uint32_t, int> counts;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[gen.next().origin_queue];
  EXPECT_NEAR(counts[0] / double(kN), 0.4, 0.01);
  EXPECT_NEAR(counts[1] / double(kN), 0.2, 0.01);
  EXPECT_NEAR(counts[3] / double(kN), 0.2, 0.01);
}

TEST(WorkloadGenerator, CommonRandomNumbersAcrossArrivalRates) {
  // Same master seed, different arrival rates: the k-th job must have the
  // same size, components, service time and origin queue.
  auto slow = base_config();
  slow.arrival_rate = 0.01;
  auto fast = base_config();
  fast.arrival_rate = 1.0;
  WorkloadGenerator a(slow, 31);
  WorkloadGenerator b(fast, 31);
  for (int i = 0; i < 1000; ++i) {
    const JobSpec ja = a.next();
    const JobSpec jb = b.next();
    EXPECT_EQ(ja.total_size, jb.total_size);
    EXPECT_EQ(ja.components, jb.components);
    EXPECT_DOUBLE_EQ(ja.service_time, jb.service_time);
    EXPECT_EQ(ja.origin_queue, jb.origin_queue);
    EXPECT_NE(ja.arrival_time, jb.arrival_time);
  }
}

TEST(WorkloadGenerator, NextBodyDoesNotAdvanceClock) {
  WorkloadGenerator gen(base_config(), 37);
  const JobSpec body = gen.next_body();
  EXPECT_DOUBLE_EQ(body.arrival_time, 0.0);
  EXPECT_GT(body.total_size, 0u);
}

TEST(WorkloadGenerator, IdsAreSequential) {
  WorkloadGenerator gen(base_config(), 41);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(gen.next().id, i);
  EXPECT_EQ(gen.jobs_generated(), 100u);
}

TEST(WorkloadGenerator, MeanExtendedSizeMatchesEmpirical) {
  auto config = base_config();
  WorkloadGenerator gen(config, 43);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const JobSpec job = gen.next_body();
    sum += job.total_size * (job.components.size() > 1 ? 1.25 : 1.0);
  }
  EXPECT_NEAR(sum / kN, config.mean_extended_size(), 0.01 * config.mean_extended_size());
}

TEST(WorkloadConfig, RateForGrossUtilizationInverts) {
  auto config = base_config();
  const double rate = config.rate_for_gross_utilization(0.5, 128);
  const double rho =
      rate * config.mean_extended_size() * config.service_distribution->mean() / 128.0;
  EXPECT_NEAR(rho, 0.5, 1e-12);
}

TEST(WorkloadGenerator, InvalidConfigThrows) {
  auto config = base_config();
  config.queue_weights = {1.0, 1.0};  // wrong length
  EXPECT_THROW(WorkloadGenerator(config, 1), std::invalid_argument);

  auto config2 = base_config();
  config2.arrival_rate = 0.0;
  EXPECT_THROW(WorkloadGenerator(config2, 1), std::invalid_argument);

  auto config3 = base_config();
  config3.service_distribution = nullptr;
  EXPECT_THROW(WorkloadGenerator(config3, 1), std::invalid_argument);

  auto config4 = base_config();
  config4.extension_factor = 0.9;
  EXPECT_THROW(WorkloadGenerator(config4, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
