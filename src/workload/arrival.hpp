// Job arrival processes. The paper's synthetic workloads use exponential
// interarrival times (WorkloadConfig::arrival_rate, drawn in the
// generator); the synthetic DAS1 log generator draws its submissions from
// the day/night-modulated process below.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace mcsim {

/// Nonhomogeneous Poisson with a periodic (daily) intensity profile,
/// sampled by thinning. Used by the synthetic DAS1 log generator to model
/// the working-hours submission pattern.
class PeriodicPoissonProcess {
 public:
  /// `base_rate` is the peak intensity; `profile(t_in_period)` in [0,1]
  /// modulates it; `period` in seconds.
  PeriodicPoissonProcess(double base_rate, double period, double (*profile)(double));
  /// Time until the next arrival, given the current time.
  [[nodiscard]] double next_interarrival(double now, Rng& rng) const;
  /// Long-run arrival rate (jobs per second).
  [[nodiscard]] double rate() const { return mean_intensity_; }

 private:
  double base_rate_;
  double period_;
  double (*profile_)(double);
  double mean_intensity_;
};

/// The arrival rate that produces gross utilization `rho` on a system of
/// `total_processors`, given the expected gross work per job
/// E[extended_size] * E[service] (sizes and service times are independent
/// in the model).
double arrival_rate_for_gross_utilization(double rho, std::uint32_t total_processors,
                                          double mean_extended_size, double mean_service);

}  // namespace mcsim
