// Runner pool semantics plus the bit-identical-parallelism contract: the
// whole point of exp::Runner is that fanning independent runs out over
// threads changes wall-clock only, never a single bit of any result. The
// determinism tests below run the GS/LS/LP/SC paper scenarios through
// run_replications and run_sweep serially and in parallel and compare every
// floating-point field with exact equality. This file is also the
// ThreadSanitizer smoke target: configure with -DMCSIM_SANITIZE=thread and
// this binary exercises all Runner synchronisation under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "exp/replications.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"

namespace mcsim {
namespace {

TEST(Runner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(exp::Runner::default_jobs(), 1u);
  exp::Runner by_default(0);
  EXPECT_EQ(by_default.jobs(), exp::Runner::default_jobs());
}

TEST(Runner, MapPreservesTaskIndexOrder) {
  exp::Runner runner(4);
  const auto results = runner.map(64, [](std::size_t i) {
    // Jitter completion order so out-of-order finishes would be caught.
    std::this_thread::sleep_for(std::chrono::microseconds((64 - i) % 7));
    return i * i;
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(Runner, RunsEveryTaskExactlyOnce) {
  exp::Runner runner(4);
  std::vector<std::atomic<int>> hits(100);
  runner.run(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Runner, IsReusableAcrossBatches) {
  exp::Runner runner(3);
  for (int batch = 0; batch < 5; ++batch) {
    const auto results = runner.map(10, [&](std::size_t i) {
      return static_cast<int>(i) + batch;
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], static_cast<int>(i) + batch);
    }
  }
}

TEST(Runner, SingleJobRunsInline) {
  exp::Runner runner(1);
  const auto caller = std::this_thread::get_id();
  runner.run(3, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(Runner, EmptyBatchIsANoOp) {
  exp::Runner runner(2);
  runner.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(Runner, PropagatesFirstExceptionByTaskOrder) {
  exp::Runner runner(4);
  try {
    runner.run(32, [](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 1");
  }
  // The pool must survive a throwing batch.
  const auto results = runner.map(4, [](std::size_t i) { return i; });
  EXPECT_EQ(results.size(), 4u);
}

TEST(Runner, InlineRunnerPropagatesExceptions) {
  exp::Runner runner(1);
  EXPECT_THROW(runner.run(2, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
}

// --- determinism: parallel == serial, bit for bit -------------------------

exp::ScenarioSpec scenario_for(PolicyKind policy) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.component_limit = 16;
  return spec;
}

const std::vector<PolicyKind> kAllPolicies = {PolicyKind::kGS, PolicyKind::kLS,
                                              PolicyKind::kLP, PolicyKind::kSC};

TEST(RunnerDeterminism, ReplicationsBitIdenticalAcrossParallelism) {
  for (PolicyKind policy : kAllPolicies) {
    exp::ScenarioSpec spec = scenario_for(policy);
    spec.mode = exp::RunMode::kReplications;
    spec.utilization = 0.45;
    spec.sim_jobs = 2500;
    spec.replications = 4;
    spec.seed = 7;
    const auto serial = run_replications(spec);
    spec.parallelism = 4;
    const auto parallel = run_replications(spec);
    SCOPED_TRACE(spec.label());
    ASSERT_EQ(serial.replication_means.size(), parallel.replication_means.size());
    for (std::size_t i = 0; i < serial.replication_means.size(); ++i) {
      EXPECT_EQ(serial.replication_means[i], parallel.replication_means[i]);
    }
    EXPECT_EQ(serial.unstable_replications, parallel.unstable_replications);
    EXPECT_EQ(serial.response_ci.mean, parallel.response_ci.mean);
    EXPECT_EQ(serial.response_ci.halfwidth, parallel.response_ci.halfwidth);
    EXPECT_EQ(serial.mean_busy_fraction, parallel.mean_busy_fraction);
  }
}

TEST(RunnerDeterminism, SweepBitIdenticalAcrossParallelism) {
  // Each grid with the index of its first unstable point (the knee): none,
  // first, in the middle, last, and a non-monotone grid whose stable tail
  // lies past the knee. Points past the knee are skipped or stopped at
  // width > 1; the kept prefix must not change by a bit.
  const std::vector<std::pair<std::vector<double>, std::size_t>> grids = {
      {{0.25, 0.45}, 2},
      {{1.2, 1.3, 1.4}, 0},
      {{0.25, 0.45, 1.2, 1.3, 1.4}, 2},
      {{0.25, 0.45, 1.2}, 2},
      {{0.2, 1.5, 0.3}, 1},
  };
  for (PolicyKind policy : kAllPolicies) {
    for (const auto& [grid, knee] : grids) {
      exp::ScenarioSpec spec = scenario_for(policy);
      spec.mode = exp::RunMode::kSweep;
      spec.utilization_grid = grid;
      spec.sim_jobs = 2500;
      spec.seed = 11;
      const auto serial = run_sweep(spec);
      SCOPED_TRACE(spec.label() + ", " + std::to_string(grid.size()) + " points, knee " +
                   std::to_string(knee));
      ASSERT_EQ(serial.points.size(), std::min(knee + 1, grid.size()));
      for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].result.unstable, i == knee);
      }
      for (unsigned width : {2u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        spec.parallelism = width;
        const auto parallel = run_sweep(spec);
        ASSERT_EQ(serial.points.size(), parallel.points.size());
        for (std::size_t i = 0; i < serial.points.size(); ++i) {
          EXPECT_EQ(serial.points[i].target_gross_utilization,
                    parallel.points[i].target_gross_utilization);
          EXPECT_EQ(serial.points[i].result.unstable, parallel.points[i].result.unstable);
          EXPECT_EQ(serial.points[i].result.mean_response(),
                    parallel.points[i].result.mean_response());
          EXPECT_EQ(serial.points[i].result.completed_jobs,
                    parallel.points[i].result.completed_jobs);
          EXPECT_EQ(serial.points[i].result.busy_fraction,
                    parallel.points[i].result.busy_fraction);
          EXPECT_EQ(serial.points[i].result.response_ci.halfwidth,
                    parallel.points[i].result.response_ci.halfwidth);
          EXPECT_EQ(serial.points[i].result.events_executed,
                    parallel.points[i].result.events_executed);
        }
      }
    }
  }
}

TEST(RunnerDeterminism, SpeculativeSweepTruncatesLikeSerialEarlyStop) {
  // 1.5 is far beyond saturation, so the sweep stops there at every width:
  // the parallel sweep must keep the identical prefix and drop the stable
  // 0.30 point past the knee, whether it skipped, stopped or finished it.
  exp::ScenarioSpec spec = scenario_for(PolicyKind::kGS);
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = {0.2, 1.5, 0.3};
  spec.sim_jobs = 2500;
  spec.seed = 3;
  const auto serial = run_sweep(spec);
  spec.parallelism = 3;
  const auto parallel = run_sweep(spec);

  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_EQ(parallel.points.size(), 2u);
  EXPECT_FALSE(parallel.points[0].result.unstable);
  EXPECT_TRUE(parallel.points[1].result.unstable);
  EXPECT_EQ(serial.points[0].result.mean_response(),
            parallel.points[0].result.mean_response());
  EXPECT_EQ(serial.max_stable_utilization(), parallel.max_stable_utilization());
}

TEST(SweepGridRegression, IndexGenerationDoesNotDriftOnFineGrids) {
  // `u += step` accumulation skipped the endpoint on this grid (error
  // ~n*eps*|u| beats the old step*1e-9 tolerance at |u|~100): 500 points
  // instead of 501.
  const auto fine = make_sweep_grid(100.0, 100.5, 0.001);
  ASSERT_EQ(fine.size(), 501u);
  EXPECT_DOUBLE_EQ(fine.front(), 100.0);
  EXPECT_NEAR(fine.back(), 100.5, 1e-9);

  // Exactness on the paper's own grid.
  const auto paper = make_sweep_grid(0.30, 0.80, 0.05);
  ASSERT_EQ(paper.size(), 11u);
  EXPECT_NEAR(paper.back(), 0.80, 1e-12);
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_DOUBLE_EQ(paper[i], 0.30 + static_cast<double>(i) * 0.05);
  }

  // Endpoint that is not exactly representable still lands within half a
  // step, never duplicated.
  const auto coarse = make_sweep_grid(0.1, 0.9, 0.1);
  EXPECT_EQ(coarse.size(), 9u);
}

}  // namespace
}  // namespace mcsim
