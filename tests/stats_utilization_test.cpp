#include <gtest/gtest.h>

#include <vector>

#include "stats/utilization.hpp"

namespace mcsim {
namespace {

TEST(UtilizationTracker, SingleJobBusyFraction) {
  UtilizationTracker u(10, 0.0);
  u.on_job_start(0.0, 5, 4.0, 4.0);
  u.on_job_finish(4.0, 5);
  // 5 of 10 processors busy for 4 of 8 seconds -> 0.25.
  EXPECT_DOUBLE_EQ(u.busy_fraction(8.0), 0.25);
}

TEST(UtilizationTracker, GrossAndNetFromStartedWork) {
  UtilizationTracker u(100, 0.0);
  // A multi-component job: 40 procs, net 10 s, gross 12.5 s.
  u.on_job_start(0.0, 40, 12.5, 10.0);
  u.on_job_finish(12.5, 40);
  const double t = 50.0;
  EXPECT_DOUBLE_EQ(u.gross_utilization(t), 40 * 12.5 / (100 * t));
  EXPECT_DOUBLE_EQ(u.net_utilization(t), 40 * 10.0 / (100 * t));
  EXPECT_GT(u.gross_utilization(t), u.net_utilization(t));
}

TEST(UtilizationTracker, OverlappingJobs) {
  UtilizationTracker u(10, 0.0);
  u.on_job_start(0.0, 4, 10.0, 10.0);
  u.on_job_start(5.0, 6, 5.0, 5.0);
  EXPECT_EQ(u.busy_processors(), 10u);
  u.on_job_finish(10.0, 4);
  u.on_job_finish(10.0, 6);
  // Integral: 4*5 + 10*5 = 70 over 10 s of 10 procs -> 0.7.
  EXPECT_DOUBLE_EQ(u.busy_fraction(10.0), 0.7);
}

TEST(UtilizationTracker, ResetAtDropsHistoryKeepsOccupancy) {
  UtilizationTracker u(10, 0.0);
  u.on_job_start(0.0, 10, 100.0, 100.0);
  u.reset_at(50.0);
  // Still fully busy after the reset.
  EXPECT_DOUBLE_EQ(u.busy_fraction(60.0), 1.0);
  // Started-work accounting restarted.
  EXPECT_DOUBLE_EQ(u.gross_utilization(60.0), 0.0);
}

TEST(UtilizationTracker, OverAllocationThrows) {
  UtilizationTracker u(8, 0.0);
  u.on_job_start(0.0, 8, 1.0, 1.0);
  EXPECT_THROW(u.on_job_start(0.5, 1, 1.0, 1.0), std::invalid_argument);
}

TEST(UtilizationTracker, OverReleaseThrows) {
  UtilizationTracker u(8, 0.0);
  u.on_job_start(0.0, 2, 1.0, 1.0);
  EXPECT_THROW(u.on_job_finish(1.0, 3), std::invalid_argument);
}

TEST(UtilizationTracker, ZeroProcessorsThrows) {
  EXPECT_THROW(UtilizationTracker(0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
