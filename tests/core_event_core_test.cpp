// The engine's event core (src/core/event_core.hpp): (time, push order)
// firing order across the arrival slot and the departure heap, including
// events pushed at the current time from inside a handler, stop and
// resume, the clock and pending count a dispatcher sees, the refusal of
// past times and of a second pending arrival, an M/M/1 queue against its
// closed form, and seeded differential checks against reference models.
//
// The core holds at most one pending arrival, so cases that need many
// pending events push departures and keep one arrival among them.
//
// The `Calendar*` suites pin the order; the `Simulator*` suites pin the
// run loop around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/event_core.hpp"
#include "core/job.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

using Kind = Event::Kind;

/// Jobs whose addresses stand for event identities; the core never
/// dereferences them.
class EventCoreTest : public ::testing::Test {
 protected:
  void use_jobs(std::size_t count) { jobs_ = std::vector<Job>(count); }
  Job* job(std::size_t i) { return &jobs_.at(i); }
  std::size_t index(const Event& event) const {
    return static_cast<std::size_t>(event.job - jobs_.data());
  }

 private:
  std::vector<Job> jobs_ = std::vector<Job>(16);
};

using Calendar = EventCoreTest;
using Simulator = EventCoreTest;

TEST_F(Calendar, PopsInTimeOrder) {
  EventCore core;
  core.push(3.0, Kind::kDeparture, job(0));
  core.push(1.0, Kind::kDeparture, job(1));
  core.push(2.0, Kind::kArrival, job(2));
  std::vector<double> times;
  std::vector<Kind> kinds;
  core.run([&](const Event& event) {
    times.push_back(event.time);
    kinds.push_back(event.kind());
  });
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(kinds, (std::vector<Kind>{Kind::kDeparture, Kind::kArrival, Kind::kDeparture}));
  EXPECT_EQ(core.pending(), 0u);
}

TEST_F(Calendar, SimultaneousEventsFifoBySequence) {
  EventCore core;
  // The arrival sits in the middle of the ties: the slot and the heap
  // must interleave by push order.
  for (std::size_t i = 0; i < 6; ++i) {
    core.push(5.0, i == 3 ? Kind::kArrival : Kind::kDeparture, job(i));
  }
  std::vector<std::size_t> order;
  core.run([&](const Event& event) { order.push_back(index(event)); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(Calendar, StressRandomOrderIsSorted) {
  constexpr std::size_t kN = 5000;
  use_jobs(kN);
  EventCore core;
  Rng rng(101);
  for (std::size_t i = 0; i < kN; ++i) {
    core.push(rng.uniform(0.0, 1000.0), i == kN / 2 ? Kind::kArrival : Kind::kDeparture,
              job(i));
  }
  double last = -1.0;
  std::vector<bool> fired(kN, false);
  std::size_t popped = 0;
  core.run([&](const Event& event) {
    EXPECT_GE(event.time, last);
    last = event.time;
    EXPECT_FALSE(fired[index(event)]);
    fired[index(event)] = true;
    ++popped;
  });
  EXPECT_EQ(popped, kN);
}

// Pushes from outside the loop interleaved with single pops (a handler
// that stops at once), checked pop by pop against an ordered set of
// (time, push index). The model keeps at most one arrival pending, as the
// engine does; arrivals and departures tie often on the coarse grid.
TEST(CalendarFuzz, MatchesReferenceModel) {
  constexpr std::size_t kPushes = 20000;
  std::vector<Job> jobs(kPushes);
  for (std::uint64_t seed : {7u, 11u, 20031128u}) {
    Rng rng(seed);
    EventCore core;
    std::set<std::pair<double, std::size_t>> reference;
    std::vector<Kind> kinds;
    bool arrival_pending = false;
    std::size_t pushed = 0;
    std::size_t popped = 0;
    while (pushed < kPushes || !reference.empty()) {
      if (pushed < kPushes && (reference.empty() || rng.uniform_int(5) < 3)) {
        // A coarse grid, so equal times are common.
        const double time = core.now() + 0.25 * static_cast<double>(rng.uniform_int(8));
        const Kind kind = !arrival_pending && rng.uniform_int(2) == 0 ? Kind::kArrival
                                                                      : Kind::kDeparture;
        arrival_pending = arrival_pending || kind == Kind::kArrival;
        core.push(time, kind, &jobs[pushed]);
        reference.emplace(time, pushed);
        kinds.push_back(kind);
        ++pushed;
      } else {
        const auto expected = *reference.begin();
        reference.erase(reference.begin());
        core.run([&](const Event& event) {
          const auto i = static_cast<std::size_t>(event.job - jobs.data());
          EXPECT_EQ(event.time, expected.first);
          EXPECT_EQ(i, expected.second);
          EXPECT_EQ(event.kind(), kinds[expected.second]);
          if (event.kind() == Kind::kArrival) arrival_pending = false;
          ++popped;
          core.stop();
        });
        ASSERT_EQ(core.pending(), reference.size()) << "seed " << seed;
      }
    }
    EXPECT_EQ(popped, kPushes);
    EXPECT_EQ(core.executed(), kPushes);
  }
}

TEST_F(Simulator, ClockAdvancesToEventTimes) {
  EventCore core;
  EXPECT_DOUBLE_EQ(core.now(), 0.0);
  core.push(2.0, Kind::kArrival, job(0));
  core.push(1.0, Kind::kDeparture, job(1));
  std::vector<std::pair<double, double>> seen;  // (event time, clock)
  core.run([&](const Event& event) { seen.emplace_back(event.time, core.now()); });
  EXPECT_EQ(seen, (std::vector<std::pair<double, double>>{{1.0, 1.0}, {2.0, 2.0}}));
  EXPECT_DOUBLE_EQ(core.now(), 2.0);
}

TEST_F(Simulator, CountsExecutedEvents) {
  EventCore core;
  for (std::size_t i = 0; i < 10; ++i) {
    core.push(static_cast<double>(i), Kind::kDeparture, job(i));
  }
  core.run([&](const Event& event) {
    if (index(event) == 3) core.stop();
  });
  EXPECT_EQ(core.executed(), 4u);
  core.run([](const Event&) {});
  EXPECT_EQ(core.executed(), 10u);
  EXPECT_EQ(core.pending(), 0u);
}

TEST_F(Simulator, HandlersCanScheduleChains) {
  EventCore core;
  int count = 0;
  core.push(1.0, Kind::kArrival, job(0));
  core.run([&](const Event&) {
    if (++count < 5) core.push(core.now() + 1.0, Kind::kArrival, job(0));
  });
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(core.now(), 5.0);
  EXPECT_EQ(core.executed(), 5u);
}

TEST_F(Simulator, StopHaltsTheLoop) {
  EventCore core;
  for (std::size_t i = 0; i < 4; ++i) {
    core.push(static_cast<double>(i + 1), Kind::kDeparture, job(i));
  }
  std::vector<std::size_t> order;
  core.run([&](const Event& event) {
    order.push_back(index(event));
    if (index(event) == 1) core.stop();
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(core.pending(), 2u);
  EXPECT_DOUBLE_EQ(core.now(), 2.0);
  EXPECT_EQ(core.executed(), 2u);
  core.run([&](const Event& event) { order.push_back(index(event)); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(core.pending(), 0u);
}

TEST_F(Simulator, SchedulingInThePastThrows) {
  EventCore core;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core.push(-1.0, Kind::kArrival, job(0)), std::invalid_argument);
  EXPECT_THROW(core.push(nan, Kind::kArrival, job(0)), std::invalid_argument);
  core.push(5.0, Kind::kArrival, job(0));
  core.run([&](const Event& event) {
    if (event.kind() != Kind::kArrival) return;
    EXPECT_THROW(core.push(4.0, Kind::kDeparture, job(1)), std::invalid_argument);
    // A departure after a NaN runtime lands at now + NaN.
    EXPECT_THROW(core.push(core.now() + nan, Kind::kDeparture, job(1)),
                 std::invalid_argument);
    core.push(core.now(), Kind::kDeparture, job(2));  // the present is allowed
  });
  EXPECT_EQ(core.executed(), 2u);
  EXPECT_DOUBLE_EQ(core.now(), 5.0);
}

TEST_F(Simulator, SecondPendingArrivalThrows) {
  EventCore core;
  core.push(2.0, Kind::kArrival, job(0));
  EXPECT_THROW(core.push(1.0, Kind::kArrival, job(1)), std::invalid_argument);
  EXPECT_THROW(core.push(2.0, Kind::kArrival, job(1)), std::invalid_argument);
  EXPECT_EQ(core.pending(), 1u);
  // The refused pushes left the slot and the push order alone: the
  // departure tied with the arrival still fires after it.
  core.push(2.0, Kind::kDeparture, job(2));
  std::vector<std::size_t> order;
  core.run([&](const Event& event) {
    order.push_back(index(event));
    if (index(event) == 0) {
      // Once the arrival fired its slot is free again, and only once.
      core.push(core.now(), Kind::kArrival, job(3));
      EXPECT_THROW(core.push(core.now(), Kind::kArrival, job(4)), std::invalid_argument);
    }
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(core.executed(), 3u);
  EXPECT_EQ(core.pending(), 0u);
}

TEST_F(Simulator, SimultaneousEventsRunInScheduleOrder) {
  // Three events at t = 1; the first handler pushes one more at t = 1 and
  // one at t = 2, the second pushes one at t = 1. The pushed ties fire
  // after every event already pending at t = 1, in push order — the
  // arrival the first handler pushes at the present included, which
  // waits in the slot behind the departure pending before it and ahead of
  // the departure pushed after it.
  EventCore core;
  core.push(1.0, Kind::kArrival, job(0));
  core.push(1.0, Kind::kDeparture, job(1));
  core.push(1.0, Kind::kDeparture, job(2));
  std::vector<std::size_t> order;
  core.run([&](const Event& event) {
    order.push_back(index(event));
    if (index(event) == 0) {
      core.push(core.now(), Kind::kArrival, job(3));
      core.push(2.0, Kind::kDeparture, job(5));
    }
    if (index(event) == 1) core.push(core.now(), Kind::kDeparture, job(4));
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(Simulator, PendingEventsCountBatchRemnants) {
  // Three ties at t = 1 plus one later event: inside the i-th tie handler
  // the ties not yet fired are still pending.
  EventCore core;
  for (std::size_t i = 0; i < 3; ++i) {
    core.push(1.0, i == 0 ? Kind::kArrival : Kind::kDeparture, job(i));
  }
  core.push(2.0, Kind::kDeparture, job(3));
  std::vector<std::size_t> pending;
  core.run([&](const Event&) { pending.push_back(core.pending()); });
  EXPECT_EQ(pending, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST_F(Simulator, StopMidBatchResumesRemnantsInOrder) {
  EventCore core;
  for (std::size_t i = 0; i < 3; ++i) {
    core.push(1.0, i == 1 ? Kind::kArrival : Kind::kDeparture, job(i));
  }
  core.push(2.0, Kind::kDeparture, job(3));
  std::vector<std::size_t> order;
  core.run([&](const Event& event) {
    order.push_back(index(event));
    core.stop();
  });
  // stop() returns after the current handler; the other ties stay pending
  // alongside the later event.
  EXPECT_EQ(order, (std::vector<std::size_t>{0}));
  EXPECT_EQ(core.pending(), 3u);
  core.run([&](const Event& event) { order.push_back(index(event)); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(core.pending(), 0u);
}

TEST_F(Simulator, StepHookSeesClockAndPendingCount) {
  // What the engine samples into the calendar.pending series after each
  // dispatch: the clock and the number of events still pending once the
  // handler returned, events the handler pushed included.
  EventCore core;
  core.push(1.0, Kind::kArrival, job(0));
  core.push(1.0, Kind::kDeparture, job(1));
  core.push(2.0, Kind::kDeparture, job(2));
  std::vector<std::pair<double, std::size_t>> samples;
  core.run([&](const Event& event) {
    if (index(event) == 0) core.push(core.now() + 2.0, Kind::kDeparture, job(3));
    samples.emplace_back(core.now(), core.pending());
  });
  EXPECT_EQ(samples, (std::vector<std::pair<double, std::size_t>>{
                         {1.0, 3}, {1.0, 2}, {2.0, 1}, {3.0, 0}}));
}

TEST_F(Simulator, MMOneQueueMatchesTheory) {
  // M/M/1 on arrival and departure events: lambda = 0.5, mu = 1.0 ->
  // utilization 0.5 and mean response time 1/(mu - lambda) = 2.
  constexpr std::size_t kJobs = 20000;
  use_jobs(kJobs);
  EventCore core;
  Rng rng(2024);
  const double lambda = 0.5;
  const double mu = 1.0;
  double busy_until = 0.0;
  double total_response = 0.0;
  std::size_t arrived = 0;
  std::size_t completed = 0;
  core.push(rng.exponential_mean(1.0 / lambda), Kind::kArrival, job(arrived++));
  core.run([&](const Event& event) {
    if (event.kind() == Kind::kArrival) {
      event.job->spec.arrival_time = core.now();
      // FCFS: service starts once the server frees up.
      busy_until = std::max(core.now(), busy_until) + rng.exponential_mean(1.0 / mu);
      core.push(busy_until, Kind::kDeparture, event.job);
      if (arrived < kJobs) {
        core.push(core.now() + rng.exponential_mean(1.0 / lambda), Kind::kArrival,
                  job(arrived++));
      }
    } else {
      total_response += core.now() - event.job->spec.arrival_time;
      ++completed;
    }
  });
  EXPECT_EQ(completed, kJobs);
  EXPECT_NEAR(total_response / static_cast<double>(completed), 2.0, 0.25);
}

// Differential check: handlers push random events (many equal times, zero
// delays included) and sometimes stop the run. Every event pushed must fire
// exactly once, in the order of a stable sort of the push log by time —
// (time, push index) — with its kind intact. At most one arrival is
// pending at a time, so a handler may push the next arrival only once the
// last one fired (its own, or an earlier one).
TEST(SimulatorFuzz, RandomSelfSchedulingHandlersStayConsistent) {
  constexpr std::size_t kPushes = 20000;
  std::vector<Job> jobs(kPushes);
  for (std::uint64_t seed : {1u, 2u, 3u, 20031128u}) {
    Rng rng(seed);
    EventCore core;
    std::vector<double> times;  // by push index
    std::vector<Kind> kinds;
    bool arrival_pending = false;
    const auto push = [&](double time) {
      const Kind kind = !arrival_pending && rng.uniform_int(2) == 0 ? Kind::kArrival
                                                                    : Kind::kDeparture;
      arrival_pending = arrival_pending || kind == Kind::kArrival;
      core.push(time, kind, &jobs[times.size()]);
      times.push_back(time);
      kinds.push_back(kind);
    };
    // Delays on a coarse grid, so equal times are the common case.
    const auto delay = [&] { return 0.5 * static_cast<double>(rng.uniform_int(4)); };
    for (int i = 0; i < 200; ++i) push(delay() * 4.0);

    std::vector<std::size_t> fired;
    const auto dispatch = [&](const Event& event) {
      const auto i = static_cast<std::size_t>(event.job - jobs.data());
      ASSERT_LT(i, times.size());
      EXPECT_EQ(event.time, times[i]);
      EXPECT_EQ(event.kind(), kinds[i]);
      EXPECT_EQ(core.now(), event.time);
      if (event.kind() == Kind::kArrival) arrival_pending = false;
      fired.push_back(i);
      for (std::uint64_t n = rng.uniform_int(4); n > 0 && times.size() < kPushes; --n) {
        push(core.now() + delay());
      }
      if (rng.uniform_int(50) == 0) core.stop();
    };
    while (core.pending() > 0) core.run(dispatch);

    std::vector<std::size_t> expected(times.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
    ASSERT_EQ(times.size(), kPushes);
    EXPECT_EQ(fired, expected) << "seed " << seed;
    EXPECT_EQ(core.executed(), kPushes);
  }
}

}  // namespace
}  // namespace mcsim
