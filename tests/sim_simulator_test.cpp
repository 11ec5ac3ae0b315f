#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(2.0, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, HandlersCanScheduleChains) {
  Simulator sim;
  int count = 0;
  // A reusable self-scheduling handler needs a copyable callable type;
  // EventFn wraps a copy of it at each schedule (move-only itself).
  std::function<void()> tick = [&]() {
    ++count;
    if (count < 5) sim.schedule_in(1.0, [&] { tick(); });
  };
  sim.schedule_in(1.0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelOfFiredOrUnknownEventReportsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(kNoEvent));
  EXPECT_FALSE(sim.cancel(EventId{12345}));  // never issued
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, CancelFromWithinHandler) {
  Simulator sim;
  bool second_fired = false;
  EventId second = kNoEvent;
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(2.0, [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(3.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<double> seen;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&seen, &sim] { seen.push_back(sim.now()); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock advances to the boundary
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  std::vector<double> seen;
  for (int i = 1; i <= 9; ++i) {
    sim.schedule_at(static_cast<double>(i), [&seen, &sim] { seen.push_back(sim.now()); });
  }
  sim.run_until(4.5);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 4.5);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run_until(9.0);
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, NullHandlerThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(Simulator, ResetRestoresInitialState) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run();
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
  bool fired = false;
  sim.schedule_at(0.5, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The batched tie drain (simulator.hpp, "Hot-path layout") must preserve
// the exact pre-batching semantics. The next three tests pin the corners:
// cancelling a batch mate, the pending counts observed mid-batch, and
// stop() leaving batch remnants that fire on re-entry.

TEST(Simulator, CancelBatchMateAtSameTimestamp) {
  Simulator sim;
  bool second_fired = false;
  bool third_fired = false;
  EventId second = kNoEvent;
  // All three share t=1.0, so they are drained as one batch; the first
  // handler cancels the second while it already sits in the batch buffer.
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(1.0, [&] { second_fired = true; });
  sim.schedule_at(1.0, [&] { third_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(third_fired);
  // The cancelled mate must not count as executed.
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_FALSE(sim.cancel(second));
}

TEST(Simulator, PendingEventsCountBatchRemnants) {
  Simulator sim;
  std::vector<std::size_t> pending;
  // Three ties at t=1 plus one later event: inside the i-th tie handler the
  // remaining batch mates are still pending, exactly as they were when the
  // calendar was popped one event at a time.
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(1.0, [&] { pending.push_back(sim.pending_events()); });
  }
  sim.schedule_at(2.0, [&] { pending.push_back(sim.pending_events()); });
  sim.run();
  EXPECT_EQ(pending, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(Simulator, StopMidBatchResumesRemnantsInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.stop();
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.schedule_at(2.0, [&] { order.push_back(4); });
  sim.run();
  // stop() returns after the current handler; the undispatched batch mates
  // stay pending alongside the later event.
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.pending_events(), 3u);
  // Re-entering the loop drains the remnants in push order before advancing.
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The observability hook sees the advanced clock and the calendar
// occupancy after every stride-th dispatched event, batch remnants included.
TEST(Simulator, StepHookSeesClockAndPendingCount) {
  Simulator sim;
  std::vector<std::pair<double, std::size_t>> every;
  sim.set_step_hook([&](double now, std::size_t pending) { every.emplace_back(now, pending); });
  sim.schedule_at(1.0, [&] { sim.schedule_in(2.0, [] {}); });
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.run();
  using Sample = std::pair<double, std::size_t>;
  EXPECT_EQ(every, (std::vector<Sample>{{1.0, 3}, {1.0, 2}, {2.0, 1}, {3.0, 0}}));

  sim.reset();
  std::vector<double> strided;
  sim.set_step_hook([&](double now, std::size_t) { strided.push_back(now); }, 2);
  for (int i = 1; i <= 5; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(strided, (std::vector<double>{2.0, 4.0}));
  EXPECT_THROW(sim.set_step_hook(nullptr, 0), std::invalid_argument);
}

TEST(Simulator, MMOneQueueMatchesTheory) {
  // M/M/1 sanity check of the whole engine: lambda = 0.5, mu = 1.0
  // -> utilization 0.5, mean number in system rho/(1-rho) = 1, mean
  // response time 1/(mu-lambda) = 2.
  Simulator sim;
  Rng rng(2024);
  const double lambda = 0.5, mu = 1.0;
  int in_system = 0;
  double total_response = 0.0;
  int completed = 0;
  std::vector<double> queue_arrival_times;
  double busy_until = 0.0;

  std::function<void()> depart;
  std::function<void()> arrive = [&] {
    const double now = sim.now();
    // Departure for this job: starts after the server frees up.
    const double start = std::max(now, busy_until);
    const double service = rng.exponential_mean(1.0 / mu);
    busy_until = start + service;
    ++in_system;
    sim.schedule_at(busy_until, [&, arrival = now] {
      --in_system;
      total_response += sim.now() - arrival;
      ++completed;
    });
    if (completed + in_system < 20000) sim.schedule_in(rng.exponential_mean(1.0 / lambda), arrive);
  };
  sim.schedule_in(rng.exponential_mean(1.0 / lambda), arrive);
  sim.run();
  EXPECT_GE(completed, 19000);
  EXPECT_NEAR(total_response / completed, 2.0, 0.25);
}

}  // namespace
}  // namespace mcsim
