#include "stats/time_weighted.hpp"

#include "util/assert.hpp"

namespace mcsim {

void TimeWeightedStat::start(double time, double value) {
  started_ = true;
  start_time_ = time;
  last_time_ = time;
  value_ = value;
  integral_ = 0.0;
  min_ = value;
  max_ = value;
}

double TimeWeightedStat::time_average(double time) const {
  MCSIM_REQUIRE(started_, "TimeWeightedStat::start must be called first");
  MCSIM_REQUIRE(time >= last_time_, "time went backwards in TimeWeightedStat");
  const double span = time - start_time_;
  if (span <= 0.0) return value_;
  const double integral = integral_ + value_ * (time - last_time_);
  return integral / span;
}

void TimeWeightedStat::reset_at(double time) {
  MCSIM_REQUIRE(started_, "TimeWeightedStat::start must be called first");
  MCSIM_REQUIRE(time >= last_time_, "time went backwards in TimeWeightedStat");
  start_time_ = time;
  last_time_ = time;
  integral_ = 0.0;
  min_ = value_;
  max_ = value_;
}

}  // namespace mcsim
