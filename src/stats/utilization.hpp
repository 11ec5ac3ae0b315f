// Gross vs net utilization accounting (paper Sect. 2.4 / Sect. 4).
//
// Gross utilization counts processors busy for the *extended* service time
// (computation + local communication + wide-area communication, since there
// is no preemption during communication). Net utilization counts only the
// non-extended service time — what the job would have needed on a single
// cluster with fast local links. The difference is the internal capacity
// loss due to slow wide-area links.
//
// Two equivalent measurements are supported:
//  * time-integrated busy processors (used for maximal-utilization runs);
//  * per-job completed work  size * service / (P * horizon)  (used for
//    steady-state sweeps, where it is exact over the measurement window).
#pragma once

#include <cstdint>

#include "stats/time_weighted.hpp"
#include "util/assert.hpp"

namespace mcsim {

class UtilizationTracker {
 public:
  /// `total_processors` is the capacity P of the whole system.
  UtilizationTracker(std::uint32_t total_processors, double start_time);

  /// A job holding `processors` CPUs started at `time`; its gross (extended)
  /// service time is `gross_service`, its net service time `net_service`.
  void on_job_start(double time, std::uint32_t processors, double gross_service,
                    double net_service) {
    MCSIM_REQUIRE(busy_ + processors <= total_, "allocated more processors than exist");
    busy_ += processors;
    busy_integral_.update(time, static_cast<double>(busy_));
    gross_work_ += static_cast<double>(processors) * gross_service;
    net_work_ += static_cast<double>(processors) * net_service;
  }

  /// The job released `processors` CPUs at `time`.
  void on_job_finish(double time, std::uint32_t processors) {
    MCSIM_REQUIRE(busy_ >= processors, "released more processors than busy");
    busy_ -= processors;
    busy_integral_.update(time, static_cast<double>(busy_));
  }

  /// Discard history before `time` (warmup deletion). In-flight gross/net
  /// work of jobs started before `time` is dropped proportionally — the
  /// busy-processor integral restarts from the current occupancy.
  void reset_at(double time);

  /// Time-averaged fraction of busy processors over the observation window
  /// (this is the gross utilization: processors are held for the extended
  /// service time).
  [[nodiscard]] double busy_fraction(double time) const;

  /// Gross utilization from completed work: sum(size*gross_service started
  /// in window) / (P * window).
  [[nodiscard]] double gross_utilization(double time) const;
  /// Net utilization analogous, with non-extended service times.
  [[nodiscard]] double net_utilization(double time) const;

  [[nodiscard]] std::uint32_t busy_processors() const { return busy_; }
  [[nodiscard]] std::uint32_t total_processors() const { return total_; }

 private:
  std::uint32_t total_;
  std::uint32_t busy_ = 0;
  TimeWeightedStat busy_integral_;
  double window_start_;
  double gross_work_ = 0.0;  // sum over started jobs of size * gross_service
  double net_work_ = 0.0;    // sum over started jobs of size * net_service
};

}  // namespace mcsim
