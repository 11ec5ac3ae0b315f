// Job observer, per-cluster utilization and slowdown metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/engine.hpp"
#include "exp/scenario_spec.hpp"
#include "trace/trace_stats.hpp"

namespace mcsim {
namespace {

SimulationConfig small_config(PolicyKind policy, bool balanced, std::uint64_t jobs = 6000) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.balanced_queues = balanced;
  spec.sim_jobs = jobs;
  spec.seed = 13;
  return exp::to_simulation_config(spec, 0.45);
}

TEST(JobObserver, SeesEveryCompletionWithConsistentTimes) {
  auto config = small_config(PolicyKind::kLS, true, 3000);
  MulticlusterSimulation sim(config);
  std::uint64_t seen = 0;
  sim.set_job_observer([&](const Job& job, double finish) {
    ++seen;
    EXPECT_TRUE(job.started());
    EXPECT_GE(job.start_time, job.spec.arrival_time);
    EXPECT_NEAR(finish, job.start_time + job.spec.gross_service_time, 1e-9);
    EXPECT_FALSE(job.allocation.empty());
  });
  const auto result = sim.run();
  EXPECT_EQ(seen, result.completed_jobs);
}

TEST(JobObserver, ExportedScheduleIsAnalyzableTrace) {
  // Simulate, export the realised schedule as trace records, and feed it
  // back through the trace statistics — the full round trip.
  auto config = small_config(PolicyKind::kGS, true, 4000);
  MulticlusterSimulation sim(config);
  std::vector<TraceRecord> records;
  sim.set_job_observer([&](const Job& job, double finish) {
    TraceRecord rec;
    rec.job_id = job.spec.id;
    rec.submit_time = job.spec.arrival_time;
    rec.wait_time = job.start_time - job.spec.arrival_time;
    rec.run_time = finish - job.start_time;
    rec.processors = job.spec.total_size;
    records.push_back(rec);
  });
  const auto result = sim.run();
  ASSERT_EQ(records.size(), result.completed_jobs);

  const auto summary = summarize_trace(records);
  EXPECT_EQ(summary.job_count, result.completed_jobs);
  EXPECT_LE(summary.max_size, 128u);
  // Mean response of the exported trace equals the engine's over ALL jobs.
  RunningStats all_responses;
  for (const auto& rec : records) all_responses.add(rec.response_time());
  EXPECT_GT(all_responses.mean(), 0.0);
}

TEST(JobObserver, StopFromTheObserverEndsTheRunAndItsResultStillFolds) {
  // A sweep stops a point past its knee this way. Stop once before the
  // warmup ends (nothing measured yet) and once mid-measurement: run()
  // returns normally and the batch means, P2 and per-class folds of the
  // partial run do not throw.
  const auto config = small_config(PolicyKind::kLS, true, 4000);
  const auto warmup = static_cast<std::uint64_t>(config.warmup_fraction *
                                                 static_cast<double>(config.total_jobs));
  for (const std::uint64_t stop_at : {warmup / 2, (warmup + config.total_jobs) / 2}) {
    SCOPED_TRACE("stop at completion " + std::to_string(stop_at));
    MulticlusterSimulation sim(config);
    std::uint64_t seen = 0;
    sim.set_job_observer([&](const Job&, double) {
      if (++seen == stop_at) sim.stop();
    });
    SimulationResult result;
    ASSERT_NO_THROW(result = sim.run());
    EXPECT_FALSE(result.unstable);
    EXPECT_EQ(result.completed_jobs, stop_at);
    EXPECT_LT(result.completed_jobs, config.total_jobs);
    EXPECT_LE(result.end_time, sim.now());
    if (stop_at < warmup) {
      EXPECT_EQ(result.measured_jobs, 0u);
      EXPECT_EQ(result.response_all.count(), 0u);
    } else {
      EXPECT_GT(result.measured_jobs, 0u);
      EXPECT_GT(result.response_ci.halfwidth, 0.0);
      EXPECT_GT(result.response_p95, 0.0);
    }
    EXPECT_EQ(result.response_local.count() + result.response_global.count(),
              result.measured_jobs);
    EXPECT_EQ(result.response_small.count() + result.response_medium.count() +
                  result.response_large.count(),
              result.measured_jobs);
    EXPECT_EQ(result.per_cluster_busy_fraction.size(), 4u);
  }
}

TEST(PerClusterUtilization, BalancedLsLoadsClustersEvenly) {
  const auto result = run_simulation(small_config(PolicyKind::kLS, true, 20000));
  ASSERT_EQ(result.per_cluster_busy_fraction.size(), 4u);
  const auto [lo, hi] = std::minmax_element(result.per_cluster_busy_fraction.begin(),
                                            result.per_cluster_busy_fraction.end());
  EXPECT_LT(*hi - *lo, 0.08);  // sampling noise only, no systematic skew
}

TEST(PerClusterUtilization, UnbalancedLsOverloadsTheHotCluster) {
  // Sect. 3.1.2: the queue receiving 40% of submissions overloads its local
  // cluster (single-component jobs are pinned there).
  const auto result = run_simulation(small_config(PolicyKind::kLS, false, 20000));
  ASSERT_EQ(result.per_cluster_busy_fraction.size(), 4u);
  const double hot = result.per_cluster_busy_fraction[0];
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_GT(hot, result.per_cluster_busy_fraction[c]) << "cluster " << c;
  }
}

TEST(PerClusterUtilization, AveragesMatchTotalBusyFraction) {
  const auto result = run_simulation(small_config(PolicyKind::kGS, true, 10000));
  double sum = 0.0;
  for (double f : result.per_cluster_busy_fraction) sum += f;
  EXPECT_NEAR(sum / 4.0, result.busy_fraction, 0.02);
}

TEST(Slowdown, AtLeastOneAndGrowsWithLoad) {
  const auto light = run_simulation(small_config(PolicyKind::kGS, true, 8000));
  EXPECT_GE(light.slowdown_all.min(), 1.0 - 1e-9);
  exp::ScenarioSpec spec;
  spec.sim_jobs = 8000;
  spec.seed = 13;
  const auto heavy = run_simulation(exp::to_simulation_config(spec, 0.6));
  if (!heavy.unstable) {
    EXPECT_GT(heavy.slowdown_all.mean(), light.slowdown_all.mean());
  }
}

}  // namespace
}  // namespace mcsim
