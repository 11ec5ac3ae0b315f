#include "stats/time_weighted.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mcsim {
namespace {

TEST(TimeWeightedStat, ConstantValueAveragesToItself) {
  TimeWeightedStat s;
  s.start(0.0, 3.0);
  EXPECT_DOUBLE_EQ(s.time_average(10.0), 3.0);
}

TEST(TimeWeightedStat, PiecewiseConstantAverage) {
  TimeWeightedStat s;
  s.start(0.0, 0.0);
  s.update(2.0, 4.0);   // 0 for 2s
  s.update(6.0, 1.0);   // 4 for 4s
  // integral = 0*2 + 4*4 + 1*4 = 20 over 10s.
  EXPECT_DOUBLE_EQ(s.time_average(10.0), 2.0);
}

TEST(TimeWeightedStat, AverageAtCurrentTime) {
  TimeWeightedStat s;
  s.start(0.0, 2.0);
  s.update(5.0, 0.0);
  EXPECT_DOUBLE_EQ(s.time_average(5.0), 2.0);
}

TEST(TimeWeightedStat, ZeroSpanReturnsCurrentValue) {
  TimeWeightedStat s;
  s.start(3.0, 7.0);
  EXPECT_DOUBLE_EQ(s.time_average(3.0), 7.0);
}

TEST(TimeWeightedStat, ResetAtDiscardsHistory) {
  TimeWeightedStat s;
  s.start(0.0, 100.0);
  s.update(10.0, 2.0);
  s.reset_at(10.0);
  EXPECT_DOUBLE_EQ(s.time_average(20.0), 2.0);
}

TEST(TimeWeightedStat, TracksMinMax) {
  TimeWeightedStat s;
  s.start(0.0, 5.0);
  s.update(1.0, -2.0);
  s.update(2.0, 9.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(TimeWeightedStat, BackwardsTimeThrows) {
  TimeWeightedStat s;
  s.start(5.0, 1.0);
  EXPECT_THROW(s.update(4.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)s.time_average(4.0), std::invalid_argument);
}

TEST(TimeWeightedStat, UseBeforeStartThrows) {
  TimeWeightedStat s;
  EXPECT_THROW(s.update(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)s.time_average(1.0), std::invalid_argument);
}

TEST(TimeWeightedStat, RepeatedUpdatesAtSameTime) {
  TimeWeightedStat s;
  s.start(0.0, 1.0);
  s.update(5.0, 2.0);
  s.update(5.0, 3.0);  // simultaneous events are legal
  EXPECT_DOUBLE_EQ(s.current_value(), 3.0);
  EXPECT_DOUBLE_EQ(s.time_average(10.0), (1.0 * 5 + 3.0 * 5) / 10.0);
}

}  // namespace
}  // namespace mcsim
