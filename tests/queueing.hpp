// Closed-form queueing results used to validate the simulation engine.
//
// The paper's model reduces to known queues in special cases (one cluster,
// single-processor jobs, exponential service -> M/M/c). The engine tests
// check the simulated mean response times against these formulas, which is
// the strongest correctness oracle available for a DES core.
#pragma once

#include <cstdint>

#include "util/assert.hpp"
#include "workload/distribution.hpp"

namespace mcsim {

/// Exponential service times, the "M" of M/M/c. The paper's workloads never
/// draw them, so the class lives here beside the oracle that needs it.
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double mean) : mean_(mean) {
    MCSIM_REQUIRE(mean > 0.0, "exponential mean must be positive");
  }
  double sample(Rng& rng) const override { return rng.exponential_mean(mean_); }
  double mean() const override { return mean_; }
  double variance() const override { return mean_ * mean_; }

 private:
  double mean_;
};

}  // namespace mcsim

namespace mcsim::queueing {

/// Erlang-C: probability an arriving job waits in an M/M/c queue with
/// offered load a = lambda/mu (in Erlangs) and c servers. Requires a < c.
double erlang_c(std::uint32_t servers, double offered_load);

/// Erlang-B: blocking probability of an M/M/c/c loss system.
double erlang_b(std::uint32_t servers, double offered_load);

/// Mean waiting time in M/M/c (lambda arrivals/s, mu service rate/s).
double mmc_mean_wait(std::uint32_t servers, double lambda, double mu);

/// Mean response (sojourn) time in M/M/c.
double mmc_mean_response(std::uint32_t servers, double lambda, double mu);

/// Mean number in system in M/M/c (Little check).
double mmc_mean_in_system(std::uint32_t servers, double lambda, double mu);

/// M/M/1 mean response time, 1/(mu - lambda).
double mm1_mean_response(double lambda, double mu);

/// M/G/1 mean waiting time by Pollaczek-Khinchine:
/// W = lambda * E[S^2] / (2 (1 - rho)).
double mg1_mean_wait(double lambda, double mean_service, double service_variance);

/// M/G/1 mean response time.
double mg1_mean_response(double lambda, double mean_service, double service_variance);

}  // namespace mcsim::queueing
