#include "stats/utilization.hpp"

#include "util/assert.hpp"

namespace mcsim {

UtilizationTracker::UtilizationTracker(std::uint32_t total_processors, double start_time)
    : total_(total_processors), window_start_(start_time) {
  MCSIM_REQUIRE(total_processors > 0, "system must have processors");
  busy_integral_.start(start_time, 0.0);
}

void UtilizationTracker::reset_at(double time) {
  busy_integral_.update(time, static_cast<double>(busy_));
  busy_integral_.reset_at(time);
  window_start_ = time;
  gross_work_ = 0.0;
  net_work_ = 0.0;
}

double UtilizationTracker::busy_fraction(double time) const {
  return busy_integral_.time_average(time) / static_cast<double>(total_);
}

double UtilizationTracker::gross_utilization(double time) const {
  const double window = time - window_start_;
  if (window <= 0.0) return 0.0;
  return gross_work_ / (static_cast<double>(total_) * window);
}

double UtilizationTracker::net_utilization(double time) const {
  const double window = time - window_start_;
  if (window <= 0.0) return 0.0;
  return net_work_ / (static_cast<double>(total_) * window);
}

}  // namespace mcsim
