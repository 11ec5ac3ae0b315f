// Unit tests for the backfilling stages' reservation bookkeeping
// (policy/reservation.hpp): the running-job ledger shared by every
// backfilling composition and the conservative stage's availability
// profile. The differential test at the end pins the sorted-ledger,
// linear kernels against reference copies of the sort- and quadratic-based
// versions they replaced.
#include "policy/reservation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(ReservationTracker, PruneDropsCompletedJobs) {
  ReservationTracker tracker;
  tracker.on_start(10.0, 8);
  tracker.on_start(20.0, 4);
  tracker.on_start(30.0, 2);
  tracker.prune(20.0);  // end_time <= now goes away
  ASSERT_EQ(tracker.running().size(), 1u);
  EXPECT_EQ(tracker.running().front().processors, 2u);
  tracker.prune(100.0);
  EXPECT_TRUE(tracker.empty());
}

TEST(ReservationTracker, ProcessorsFollowStartsAndPrunes) {
  ReservationTracker tracker;
  EXPECT_EQ(tracker.processors(), 0u);
  tracker.on_start(10.0, 8);
  tracker.on_start(30.0, 2);
  tracker.on_start(20.0, 4);
  EXPECT_EQ(tracker.processors(), 14u);
  tracker.prune(20.0);
  EXPECT_EQ(tracker.processors(), 2u);
  tracker.prune(30.0);
  EXPECT_EQ(tracker.processors(), 0u);
}

TEST(ReservationTracker, HeadReservationFindsEarliestFit) {
  ReservationTracker tracker;
  tracker.on_start(/*end_time=*/40.0, /*processors=*/16);
  tracker.on_start(/*end_time=*/10.0, /*processors=*/4);
  tracker.on_start(/*end_time=*/25.0, /*processors=*/8);
  // 6 idle now; the head needs 20. Completions in time order: +4 at t=10
  // (10 free), +8 at t=25 (18 free), +16 at t=40 (34 free) — first fit at
  // t=40 with 14 spare.
  const auto [time, spare] = tracker.head_reservation(/*idle=*/6, /*needed=*/20);
  EXPECT_DOUBLE_EQ(time, 40.0);
  EXPECT_EQ(spare, 14u);
}

TEST(ReservationTracker, HeadReservationUsesUnsortedLedgerCorrectly) {
  // The ledger is in start order; the reservation must scan by end time.
  ReservationTracker tracker;
  tracker.on_start(50.0, 10);
  tracker.on_start(5.0, 10);
  const auto [time, spare] = tracker.head_reservation(/*idle=*/0, /*needed=*/10);
  EXPECT_DOUBLE_EQ(time, 5.0);
  EXPECT_EQ(spare, 0u);
}

TEST(ReservationTracker, HeadReservationFreesTheWholeTieGroup) {
  // 2 idle, the head needs 10. +4 at t=5 (6 free); the crossing falls
  // inside the t=10 tie group (+3, +5, +6), so all three jobs ending then
  // count: 20 free at t=10, 10 spare, whatever order the ledger lists them.
  const auto reserve_with = [](const std::vector<std::pair<double, std::uint32_t>>& ledger) {
    ReservationTracker tracker;
    for (const auto& [end_time, processors] : ledger) tracker.on_start(end_time, processors);
    return tracker.head_reservation(/*idle=*/2, /*needed=*/10);
  };
  const auto forward = reserve_with({{5.0, 4}, {10.0, 3}, {10.0, 5}, {10.0, 6}, {20.0, 8}});
  const auto reversed = reserve_with({{20.0, 8}, {10.0, 6}, {10.0, 5}, {10.0, 3}, {5.0, 4}});
  EXPECT_DOUBLE_EQ(forward.first, 10.0);
  EXPECT_EQ(forward.second, 10u);
  EXPECT_EQ(forward, reversed);
}

TEST(ReservationTracker, ImpossibleHeadDegradesToInfinity) {
  ReservationTracker tracker;
  tracker.on_start(10.0, 8);
  const auto [time, spare] = tracker.head_reservation(/*idle=*/4, /*needed=*/64);
  EXPECT_TRUE(std::isinf(time));
  EXPECT_EQ(spare, 0u);
}

TEST(AvailabilityProfile, ResetBuildsStepwiseFreeCounts) {
  ReservationTracker ledger;
  ledger.on_start(20.0, 6);  // started out of end-time order on purpose
  ledger.on_start(10.0, 4);
  AvailabilityProfile profile;
  profile.reset(/*now=*/0.0, /*idle=*/10, ledger);
  // 10 free at t=0, 14 from t=10, 20 from t=20.
  EXPECT_DOUBLE_EQ(profile.earliest_fit(10, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(12, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(20, 5.0), 20.0);
}

TEST(AvailabilityProfile, EarliestFitHonoursTheWholeWindow) {
  ReservationTracker ledger;
  ledger.on_start(10.0, 16);
  AvailabilityProfile profile;
  profile.reset(0.0, 16, ledger);
  // 16 free now, 32 from t=10. A job of 16 fits immediately whatever its
  // duration; after reserving 16 over [0, 8) a second 16 must wait until
  // the window [t, t+duration) clears the reservation.
  profile.reserve(0.0, 8.0, 16);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(16, 4.0), 8.0);
  // A wider job must wait for the running job's completion at t=10.
  EXPECT_DOUBLE_EQ(profile.earliest_fit(32, 4.0), 10.0);
}

TEST(AvailabilityProfile, ReserveCarvesTheProfile) {
  AvailabilityProfile profile;
  profile.reset(0.0, 8, ReservationTracker{});
  profile.reserve(0.0, 3.0, 4);  // 4 of 8 booked over [0, 3)
  // A job within the remaining 4 starts immediately; anything wider waits
  // for the reservation to expire.
  EXPECT_DOUBLE_EQ(profile.earliest_fit(4, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(5, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(8, 2.0), 3.0);
  // A second reservation in the gap [2, 5) carves across the breakpoint.
  profile.reserve(2.0, 3.0, 4);
  EXPECT_DOUBLE_EQ(profile.earliest_fit(4, 1.0), 0.0);   // [0, 2) still has 4
  EXPECT_DOUBLE_EQ(profile.earliest_fit(8, 1.0), 5.0);
}

TEST(AvailabilityProfile, OversizeNeverFits) {
  ReservationTracker ledger;
  ledger.on_start(5.0, 8);
  AvailabilityProfile profile;
  profile.reset(0.0, 8, ledger);
  EXPECT_TRUE(std::isinf(profile.earliest_fit(64, 1.0)));
}

// ---------------------------------------------------------------------------
// Reference kernels: the sort-based ledger and quadratic profile scans the
// sorted ledger replaced, unchanged except that head_reservation carries
// the tie rule (the whole tie group frees at t_res). The ledger here is a
// plain start-order vector, as on_start used to append it.
namespace reference {

using Ledger = std::vector<ReservationTracker::RunningJob>;
using Points = std::vector<std::pair<double, std::uint32_t>>;

std::pair<double, std::uint32_t> head_reservation(const Ledger& running, std::uint32_t idle,
                                                  std::uint32_t needed) {
  Ledger by_end = running;
  std::sort(by_end.begin(), by_end.end(),
            [](const auto& a, const auto& b) { return a.end_time < b.end_time; });
  for (std::size_t i = 0; i < by_end.size(); ++i) {
    idle += by_end[i].processors;
    if (idle >= needed) {
      const double t_res = by_end[i].end_time;
      while (++i < by_end.size() && by_end[i].end_time == t_res) {
        idle += by_end[i].processors;
      }
      return {t_res, idle - needed};
    }
  }
  return {std::numeric_limits<double>::infinity(), 0};
}

Points reset(double now, std::uint32_t idle, const Ledger& running) {
  Points points{{now, idle}};
  Points ends;
  for (const auto& job : running) {
    if (job.end_time <= now) {
      points.front().second += job.processors;
    } else {
      ends.emplace_back(job.end_time, job.processors);
    }
  }
  std::sort(ends.begin(), ends.end());
  for (const auto& [time, processors] : ends) {
    if (points.back().first == time) {
      points.back().second += processors;
    } else {
      points.emplace_back(time, points.back().second + processors);
    }
  }
  return points;
}

double earliest_fit(const Points& points, std::uint32_t size, double duration) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].second < size) continue;
    const double end = points[i].first + duration;
    bool fits = true;
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (points[j].first >= end) break;
      if (points[j].second < size) {
        fits = false;
        break;
      }
    }
    if (fits) return points[i].first;
  }
  return std::numeric_limits<double>::infinity();
}

void reserve(Points& points, double start, double duration, std::uint32_t size) {
  const double end = start + duration;
  const auto insert_point = [&points](double time) {
    if (time <= points.front().first) return;
    auto it = points.begin();
    while (it != points.end() && it->first < time) ++it;
    if (it != points.end() && it->first == time) return;
    const std::uint32_t free_before = std::prev(it)->second;
    points.insert(it, {time, free_before});
  };
  insert_point(start);
  insert_point(end);
  for (auto& [time, free] : points) {
    if (time >= end) break;
    if (time >= start) free = free >= size ? free - size : 0;
  }
}

}  // namespace reference

TEST(ReservationKernels, MatchTheSortAndQuadraticReferences) {
  // Random ledgers and reservation sequences. Three trials in four use
  // integer times, so equal end times, equal breakpoints and reservations
  // starting or ending exactly on a breakpoint are common; durations are
  // zero one time in four.
  Rng rng(20031128);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.uniform_int(n));
  };
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool integral = trial % 4 != 0;
    const auto span = [&](double length) {
      return integral ? static_cast<double>(below(static_cast<std::uint64_t>(length) + 1))
                      : rng.uniform(0.0, length);
    };
    const double now = static_cast<double>(below(20));

    // The ledger, including jobs already at or past their end (a departure
    // being processed, or a round before the pruning one).
    ReservationTracker tracker;
    reference::Ledger ledger;
    std::uint32_t busy = 0;
    const std::uint32_t jobs = below(13);
    for (std::uint32_t k = 0; k < jobs; ++k) {
      const double end_time = now - 3.0 + span(30.0);
      const std::uint32_t processors = 1 + below(16);
      tracker.on_start(end_time, processors);
      ledger.push_back({end_time, processors});
      busy += processors;
    }
    if (below(3) == 0) {
      const double cut = now - static_cast<double>(below(4));
      tracker.prune(cut);
      std::erase_if(ledger, [cut](const auto& job) { return job.end_time <= cut; });
    }
    // Sorted by end time, start order among equal ends: exactly a stable
    // sort of the start-order reference.
    reference::Ledger by_end = ledger;
    std::stable_sort(by_end.begin(), by_end.end(),
                     [](const auto& a, const auto& b) { return a.end_time < b.end_time; });
    ASSERT_EQ(tracker.running().size(), by_end.size());
    for (std::size_t k = 0; k < by_end.size(); ++k) {
      ASSERT_EQ(tracker.running()[k].end_time, by_end[k].end_time);
      ASSERT_EQ(tracker.running()[k].processors, by_end[k].processors);
    }

    const std::uint32_t idle = below(17);
    for (int query = 0; query < 4; ++query) {
      const std::uint32_t needed = 1 + below(idle + busy + 8);
      if (idle >= needed && tracker.empty()) continue;  // no reservation asked
      ASSERT_EQ(tracker.head_reservation(idle, needed),
                reference::head_reservation(ledger, idle, needed));
    }

    AvailabilityProfile profile;
    profile.reset(now, idle, tracker);
    reference::Points points = reference::reset(now, idle, ledger);
    ASSERT_EQ(profile.points(), points);
    std::uint32_t free_now = profile.free_now();
    for (int step = 0; step < 12; ++step) {
      const std::uint32_t size = 1 + below(idle + busy + 8);
      const double duration = below(4) == 0 ? 0.0 : span(40.0);
      const double fit = profile.earliest_fit(size, duration);
      ASSERT_EQ(fit, reference::earliest_fit(points, size, duration));
      // Reserve where the conservative stage would, or at an arbitrary
      // later start.
      double start = std::isfinite(fit) ? std::max(fit, now) : now + span(30.0);
      if (below(4) == 0) start = now + span(30.0);
      profile.reserve(start, duration, size);
      reference::reserve(points, start, duration, size);
      ASSERT_EQ(profile.points(), points);
      // The early-exit invariant: the free count at `now` never rises.
      ASSERT_LE(profile.free_now(), free_now);
      free_now = profile.free_now();
    }
  }
}

}  // namespace
}  // namespace mcsim
