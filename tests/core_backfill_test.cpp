#include <gtest/gtest.h>

#include "policy/composed_scheduler.hpp"
#include "policy/scheduler_factory.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

using testing::FakeContext;
using testing::make_policy;
using testing::make_job;

TEST(BackfillModeName, Names) {
  EXPECT_STREQ(backfill_mode_name(BackfillMode::kNone), "fcfs");
  EXPECT_STREQ(backfill_mode_name(BackfillMode::kAggressive), "aggressive-bf");
  EXPECT_STREQ(backfill_mode_name(BackfillMode::kEasy), "easy-bf");
  EXPECT_STREQ(backfill_mode_name(BackfillMode::kConservative),
               "conservative-bf");
}

TEST(AggressiveBackfill, StartsSmallJobsPastBlockedHead) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kAggressive);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}));
  policy.submit(make_job(2, {100}));  // blocked head (only 28 idle)
  policy.submit(make_job(3, {20}));   // backfills
  policy.submit(make_job(4, {20}));   // does not fit (8 idle)
  policy.submit(make_job(5, {8}));    // backfills
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 5u);
  EXPECT_EQ(policy.queued_jobs(), 2u);
}

TEST(AggressiveBackfill, PreservesFifoAmongFittingJobs) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kAggressive);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {120}));
  policy.submit(make_job(2, {60}));  // blocked
  policy.submit(make_job(3, {4}));
  policy.submit(make_job(4, {4}));
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 4u);
}

TEST(EasyBackfill, BackfillsOnlyWhenReservationHolds) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kEasy);
  ComposedScheduler& policy = *policy_owner;
  // Job 1 runs for 100 s on 100 CPUs; head job 2 needs 100 CPUs and gets a
  // reservation at t = 100 with 28 CPUs spare then.
  policy.submit(make_job(1, {100}, 0, /*service=*/100.0));
  policy.submit(make_job(2, {100}, 0, 100.0));
  // Job 3: 20 CPUs for 50 s — ends before the reservation: backfills.
  policy.submit(make_job(3, {20}, 0, 50.0));
  // Job 4: 20 CPUs for 500 s — would overlap t=100 AND 20+20 > 28 spare:
  // must NOT backfill (it would delay the head).
  policy.submit(make_job(4, {20}, 0, 500.0));
  // Job 5: 8 CPUs for 500 s — overlaps but fits the remaining spare
  // (28 - 20 already taken? job 4 was rejected, spare still 28): backfills.
  policy.submit(make_job(5, {8}, 0, 500.0));
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 5u);
}

TEST(Backfill, RefillBeforeDepartureNoticeSeesNoPhantomProcessors) {
  // The engine's constant-backlog refill is submitted after the departing
  // job released its processors but before on_departure(): its ledger
  // entry must not count again as processors returning at `now`.
  for (BackfillMode backfill : {BackfillMode::kEasy, BackfillMode::kConservative}) {
    FakeContext ctx({128});
    auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit, backfill);
    ComposedScheduler& policy = *policy_owner;
    policy.submit(make_job(1, {60}, 0, 100.0));
    policy.submit(make_job(2, {40}, 0, 1000.0));
    policy.submit(make_job(3, {100}, 0, 100.0));  // head: can start at t=1000
    ASSERT_EQ(ctx.started.size(), 2u);
    ctx.release(ctx.started[0]);                  // job 1 leaves at t=100
    // 40 CPUs until t=5100 would leave the head 88 < 100 at t=1000.
    policy.submit(make_job(4, {40}, 0, 5000.0));
    policy.on_departure();
    EXPECT_EQ(ctx.started.size(), 2u) << backfill_mode_name(backfill);
  }
}

TEST(EasyBackfill, LongJobWithinSpareBackfills) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kEasy);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}, 0, 100.0));
  policy.submit(make_job(2, {100}, 0, 100.0));  // reservation at 100, spare 28
  policy.submit(make_job(3, {28}, 0, 10000.0)); // long but within spare
  ASSERT_EQ(ctx.started.size(), 2u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
}

TEST(EasyBackfill, SpareShrinksAsLongJobsBackfill) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kEasy);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}, 0, 100.0));
  policy.submit(make_job(2, {100}, 0, 100.0));   // spare 28 at t=100
  policy.submit(make_job(3, {20}, 0, 10000.0));  // takes 20 of the spare
  policy.submit(make_job(4, {20}, 0, 10000.0));  // 20 > remaining 8: blocked
  policy.submit(make_job(5, {8}, 0, 10000.0));   // fits remaining spare
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[1]->spec.id, 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 5u);
}

TEST(EasyBackfill, HeadStartsExactlyAtReservation) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kEasy);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}, 0, 100.0));
  policy.submit(make_job(2, {100}, 0, 100.0));
  policy.submit(make_job(3, {20}, 0, 50.0));  // backfilled
  // Finish the backfilled job first, then job 1: the head must start.
  ctx.finish(ctx.started[1], policy);  // job 3 at t=50
  EXPECT_EQ(ctx.started.size(), 2u);
  ctx.finish(ctx.started[0], policy);  // job 1 at t=100
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 2u);
}

TEST(ConservativeBackfill, FillerMustClearEveryReservation) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kConservative);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}, 0, 100.0));
  policy.submit(make_job(2, {128}, 0, 100.0));  // head: reserved [100, 200)
  // Job 3 fits the 28 idle CPUs right now, but its 150 s window crosses the
  // head's whole-machine reservation — aggressive would start it,
  // conservative must not.
  policy.submit(make_job(3, {28}, 0, 150.0));
  EXPECT_EQ(ctx.started.size(), 1u);
  // Job 4 finishes at t=50, before the reservation: backfills.
  policy.submit(make_job(4, {28}, 0, 50.0));
  ASSERT_EQ(ctx.started.size(), 2u);
  EXPECT_EQ(ctx.started[1]->spec.id, 4u);
  EXPECT_EQ(policy.queued_jobs(), 2u);
}

TEST(ConservativeBackfill, ProtectsIntermediateReservationsUnlikeEasy) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kConservative);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {64}, 0, 100.0));
  policy.submit(make_job(2, {96}, 0, 100.0));   // head: reserved [100, 200)
  policy.submit(make_job(3, {128}, 0, 300.0));  // reserved [200, 500)
  // Job 4 stays within the head's 32-CPU spare — EASY would start it and
  // push job 3 back indefinitely. Conservative holds job 3's slot.
  policy.submit(make_job(4, {32}, 0, 250.0));
  EXPECT_EQ(ctx.started.size(), 1u);
  // A filler that drains before every reservation still goes through.
  policy.submit(make_job(5, {32}, 0, 50.0));
  ASSERT_EQ(ctx.started.size(), 2u);
  EXPECT_EQ(ctx.started[1]->spec.id, 5u);
}

TEST(ConservativeBackfill, HeadStartsWhenCapacityFrees) {
  FakeContext ctx({128});
  auto policy_owner = make_policy(PolicyKind::kSC, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kConservative);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {100}, 0, 100.0));
  policy.submit(make_job(2, {128}, 0, 100.0));
  policy.submit(make_job(3, {28}, 0, 50.0));  // backfilled
  ctx.finish(ctx.started[1], policy);  // job 3 at t=50: head still blocked
  EXPECT_EQ(ctx.started.size(), 2u);
  ctx.finish(ctx.started[0], policy);  // job 1 at t=100: whole machine free
  ASSERT_EQ(ctx.started.size(), 3u);
  EXPECT_EQ(ctx.started[2]->spec.id, 2u);
}

TEST(Backfill, FactoryNamesAndGuards) {
  const auto build = [](PolicyKind kind, BackfillMode backfill, SchedulerContext& context) {
    return make_scheduler(kind, expand_policy(kind, PlacementRule::kWorstFit, backfill),
                          context);
  };
  FakeContext single({128});
  EXPECT_EQ(build(PolicyKind::kSC, BackfillMode::kEasy, single)->name(), "SC+easy-bf");
  FakeContext multi({32, 32, 32, 32});
  EXPECT_EQ(build(PolicyKind::kGS, BackfillMode::kAggressive, multi)->name(),
            "GS+aggressive-bf");
  EXPECT_EQ(build(PolicyKind::kSC, BackfillMode::kConservative, single)->name(),
            "SC+conservative-bf");
  // Backfilling needs the single global queue (validate_pipeline).
  EXPECT_THROW(build(PolicyKind::kLS, BackfillMode::kEasy, multi), std::invalid_argument);
  EXPECT_THROW(build(PolicyKind::kLP, BackfillMode::kConservative, multi),
               std::invalid_argument);
}

TEST(Backfill, MulticlusterAggressiveRespectsPlacement) {
  FakeContext ctx({32, 32, 32, 32});
  auto policy_owner = make_policy(PolicyKind::kGS, ctx, PlacementRule::kWorstFit,
                                  BackfillMode::kAggressive);
  ComposedScheduler& policy = *policy_owner;
  policy.submit(make_job(1, {32, 32, 32}));  // clusters 0,1,2
  policy.submit(make_job(2, {32, 32}));      // blocked: needs two clusters
  policy.submit(make_job(3, {16, 16}));      // needs two clusters too: blocked
  policy.submit(make_job(4, {16}));          // fits cluster 3: backfills
  ASSERT_EQ(ctx.started.size(), 2u);
  EXPECT_EQ(ctx.started[1]->spec.id, 4u);
}

TEST(Backfill, EndToEndScEasyBeatsScFcfsUnderLoad) {
  // The Sect. 3.2 connection: SC's weakness is head-of-line blocking by
  // very large jobs; EASY backfilling removes most of it.
  auto fcfs = testing::paper_point(PolicyKind::kSC, 0.68, 15000, 9);
  auto easy = fcfs;
  easy.pipeline.backfill = BackfillMode::kEasy;
  const auto fcfs_result = run_simulation(fcfs);
  const auto easy_result = run_simulation(easy);
  ASSERT_FALSE(easy_result.unstable);
  const double fcfs_response = fcfs_result.unstable
                                   ? std::numeric_limits<double>::infinity()
                                   : fcfs_result.mean_response();
  EXPECT_LT(easy_result.mean_response(), fcfs_response);
}

TEST(Backfill, EndToEndDeterministic) {
  auto config = testing::paper_point(PolicyKind::kGS, 0.5, 5000, 3);
  config.pipeline.backfill = BackfillMode::kEasy;
  const auto a = run_simulation(config);
  const auto b = run_simulation(config);
  EXPECT_DOUBLE_EQ(a.mean_response(), b.mean_response());
}

}  // namespace
}  // namespace mcsim
