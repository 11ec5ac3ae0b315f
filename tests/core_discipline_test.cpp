#include <gtest/gtest.h>

#include "policy/composed_scheduler.hpp"
#include "policy/scheduler_factory.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

using testing::FakeContext;
using testing::make_policy;
using testing::make_job;

TEST(QueueDiscipline, Names) {
  EXPECT_STREQ(queue_discipline_name(QueueDiscipline::kFcfs), "fcfs");
  EXPECT_STREQ(queue_discipline_name(QueueDiscipline::kShortestJobFirst), "sjf");
  EXPECT_STREQ(queue_discipline_name(QueueDiscipline::kLongestJobFirst), "ljf");
  EXPECT_STREQ(queue_discipline_name(QueueDiscipline::kSmallestFirst), "smallest-first");
  EXPECT_STREQ(queue_discipline_name(QueueDiscipline::kLargestFirst), "largest-first");
}

TEST(QueueDiscipline, FcfsOrderIsNull) {
  EXPECT_EQ(make_job_order(QueueDiscipline::kFcfs), nullptr);
}

TEST(JobQueueOrder, SortedInsertIsStable) {
  JobQueue queue;
  queue.set_order(make_job_order(QueueDiscipline::kSmallestFirst));
  queue.push(make_job(1, {8}));
  queue.push(make_job(2, {4}));
  queue.push(make_job(3, {4}));  // equal size: after job 2 (stable)
  queue.push(make_job(4, {16}));
  EXPECT_EQ(queue.pop()->spec.id, 2u);
  EXPECT_EQ(queue.pop()->spec.id, 3u);
  EXPECT_EQ(queue.pop()->spec.id, 1u);
  EXPECT_EQ(queue.pop()->spec.id, 4u);
}

// The tie rule every discipline must obey: jobs whose sort keys compare
// equal start in FCFS arrival order. The sorted insert walks past equal
// elements, so equal keys never reorder — pinned here for all five
// disciplines with jobs that are identical in both size and service time.
TEST(JobQueueOrder, EqualKeysPreserveArrivalOrderUnderEveryDiscipline) {
  for (const auto discipline :
       {QueueDiscipline::kFcfs, QueueDiscipline::kShortestJobFirst,
        QueueDiscipline::kLongestJobFirst, QueueDiscipline::kSmallestFirst,
        QueueDiscipline::kLargestFirst}) {
    SCOPED_TRACE(queue_discipline_name(discipline));
    JobQueue queue;
    queue.set_order(make_job_order(discipline));
    for (std::uint64_t id = 1; id <= 6; ++id) {
      queue.push(make_job(id, {8}, 0, 300.0));  // all sort keys equal
    }
    for (std::uint64_t id = 1; id <= 6; ++id) {
      EXPECT_EQ(queue.pop()->spec.id, id);
    }
  }
}

// Same property end to end through a policy: a blocked queue of
// equal-key jobs drains in submission order once capacity frees up.
TEST(JobQueueOrder, PolicyStartsEqualKeyJobsInSubmissionOrder) {
  for (const auto discipline :
       {QueueDiscipline::kFcfs, QueueDiscipline::kShortestJobFirst,
        QueueDiscipline::kLongestJobFirst, QueueDiscipline::kSmallestFirst,
        QueueDiscipline::kLargestFirst}) {
    SCOPED_TRACE(queue_discipline_name(discipline));
    FakeContext ctx({128});
    auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                    BackfillMode::kNone, discipline);
    ComposedScheduler& policy = *policy_owner;
    policy.submit(make_job(1, {128}, 0, 100.0));  // occupies everything
    for (std::uint64_t id = 2; id <= 5; ++id) {
      policy.submit(make_job(id, {16}, 0, 200.0));
    }
    ctx.finish(ctx.started[0], policy);
    ASSERT_EQ(ctx.started.size(), 5u);
    for (std::uint64_t id = 2; id <= 5; ++id) {
      EXPECT_EQ(ctx.started[id - 1]->spec.id, id);
    }
  }
}

TEST(JobQueueOrder, SetOrderOnNonEmptyQueueThrows) {
  JobQueue queue;
  queue.push(make_job(1, {4}));
  EXPECT_THROW(queue.set_order(make_job_order(QueueDiscipline::kSmallestFirst)),
               std::invalid_argument);
}

TEST(SmallestFirst, ServesSmallJobsBeforeBigOnes) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kNone, QueueDiscipline::kSmallestFirst);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {128}));  // occupies everything
  policy.submit(make_job(2, {64}));
  policy.submit(make_job(3, {4}));
  policy.submit(make_job(4, {16}));
  ctx.finish(ctx.started[0], policy);
  ASSERT_EQ(ctx.started.size(), 4u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 4u);
  EXPECT_EQ(ctx.started[3]->spec.id, 2u);
}

TEST(Sjf, ServesShortJobsFirst) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kNone, QueueDiscipline::kShortestJobFirst);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {128}, 0, 100.0));
  policy.submit(make_job(2, {8}, 0, 500.0));
  policy.submit(make_job(3, {8}, 0, 50.0));
  ctx.finish(ctx.started[0], policy);
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 2u);
}

TEST(Discipline, FactoryNamesAndGuards) {
  const auto build = [](PolicyKind kind, SchedulerContext& context) {
    return make_scheduler(kind,
                          expand_policy(kind, PlacementRule::kWorstFit, BackfillMode::kNone,
                                        QueueDiscipline::kShortestJobFirst),
                          context);
  };
  FakeContext single({128});
  EXPECT_EQ(build(PolicyKind::kSC, single)->name(), "SC+sjf");
  // Disciplines compose with every queue structure (the queue stage applies
  // per queue) — LS+sjf is a valid composition, not an error.
  FakeContext multi({32, 32, 32, 32});
  EXPECT_EQ(build(PolicyKind::kLS, multi)->name(), "LS+sjf");
}

TEST(Discipline, SjfReordersWithinLocalQueues) {
  FakeContext ctx({32, 32});
  auto policy_owner = make_policy(PolicyKind::kLS, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kNone,
                                  QueueDiscipline::kShortestJobFirst);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {32}, 0, 100.0));  // fills cluster 0
  policy.submit(make_job(2, {8}, 0, 500.0));
  policy.submit(make_job(3, {8}, 0, 50.0));  // shorter: jumps ahead of job 2
  ctx.finish(ctx.started[0], policy);
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 2u);
}

TEST(Discipline, SjfImprovesMeanResponseUnderLoad) {
  auto fcfs = testing::paper_point(PolicyKind::kSC, 0.6, 20000, 5);
  auto sjf = fcfs;
  sjf.pipeline.discipline = QueueDiscipline::kShortestJobFirst;
  const auto fcfs_result = run_simulation(fcfs);
  const auto sjf_result = run_simulation(sjf);
  ASSERT_FALSE(sjf_result.unstable);
  if (!fcfs_result.unstable) {
    EXPECT_LT(sjf_result.mean_response(), fcfs_result.mean_response());
  }
}

TEST(Discipline, LargestFirstHurtsMeanResponse) {
  auto fcfs = testing::paper_point(PolicyKind::kSC, 0.5, 15000, 5);
  auto ljf = fcfs;
  ljf.pipeline.discipline = QueueDiscipline::kLargestFirst;
  const auto fcfs_result = run_simulation(fcfs);
  const auto ljf_result = run_simulation(ljf);
  ASSERT_FALSE(fcfs_result.unstable);
  const double ljf_response = ljf_result.unstable
                                  ? std::numeric_limits<double>::infinity()
                                  : ljf_result.mean_response();
  EXPECT_GT(ljf_response, fcfs_result.mean_response());
}

}  // namespace
}  // namespace mcsim
