#include "workload/arrival.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace mcsim {

PeriodicPoissonProcess::PeriodicPoissonProcess(double base_rate, double period,
                                               double (*profile)(double))
    : base_rate_(base_rate), period_(period), profile_(profile) {
  MCSIM_REQUIRE(base_rate > 0.0, "base rate must be positive");
  MCSIM_REQUIRE(period > 0.0, "period must be positive");
  MCSIM_REQUIRE(profile != nullptr, "profile function required");
  // Mean intensity by trapezoidal integration over one period.
  constexpr int kSteps = 1000;
  double sum = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double t = period_ * static_cast<double>(i) / kSteps;
    const double w = (i == 0 || i == kSteps) ? 0.5 : 1.0;
    sum += w * profile_(t);
  }
  mean_intensity_ = base_rate_ * sum / kSteps;
}

double PeriodicPoissonProcess::next_interarrival(double now, Rng& rng) const {
  // Ogata thinning against the constant majorant base_rate_.
  double t = now;
  while (true) {
    t += rng.exponential_mean(1.0 / base_rate_);
    const double phase = std::fmod(t, period_);
    const double intensity = profile_(phase);
    MCSIM_ASSERT(intensity >= 0.0 && intensity <= 1.0);
    if (rng.uniform() < intensity) return t - now;
  }
}

double arrival_rate_for_gross_utilization(double rho, std::uint32_t total_processors,
                                          double mean_extended_size, double mean_service) {
  MCSIM_REQUIRE(rho > 0.0, "utilization must be positive");
  MCSIM_REQUIRE(total_processors > 0, "system must have processors");
  MCSIM_REQUIRE(mean_extended_size > 0.0 && mean_service > 0.0,
                "mean work per job must be positive");
  return rho * static_cast<double>(total_processors) / (mean_extended_size * mean_service);
}

}  // namespace mcsim
