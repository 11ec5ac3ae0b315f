// Time-weighted statistics for piecewise-constant processes (queue length,
// number of busy processors). The time average over [t0, t_now] is
//   (1/T) * integral of value(t) dt.
#pragma once

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mcsim {

class TimeWeightedStat {
 public:
  /// Begin observation at `time` with initial `value`.
  void start(double time, double value);

  /// Record that the process changed to `value` at `time`.
  /// Times must be non-decreasing.
  void update(double time, double value) {
    MCSIM_REQUIRE(started_, "TimeWeightedStat::start must be called first");
    MCSIM_REQUIRE(time >= last_time_, "time went backwards in TimeWeightedStat");
    integral_ += value_ * (time - last_time_);
    last_time_ = time;
    value_ = value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  /// Time average over [start_time, time]; advances the integral to `time`.
  [[nodiscard]] double time_average(double time) const;

  /// Discard history before `time` (warmup deletion), keeping current value.
  void reset_at(double time);

  [[nodiscard]] double current_value() const { return value_; }
  [[nodiscard]] double last_time() const { return last_time_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace mcsim
