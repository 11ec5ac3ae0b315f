#include "queueing.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace mcsim::queueing {

double erlang_b(std::uint32_t servers, double offered_load) {
  MCSIM_REQUIRE(servers > 0, "need at least one server");
  MCSIM_REQUIRE(offered_load >= 0.0, "offered load must be non-negative");
  // Stable recurrence: B(0) = 1; B(k) = a B(k-1) / (k + a B(k-1)).
  double b = 1.0;
  for (std::uint32_t k = 1; k <= servers; ++k) {
    b = offered_load * b / (static_cast<double>(k) + offered_load * b);
  }
  return b;
}

double erlang_c(std::uint32_t servers, double offered_load) {
  MCSIM_REQUIRE(offered_load < static_cast<double>(servers),
                "M/M/c requires offered load < c");
  const double b = erlang_b(servers, offered_load);
  const double rho = offered_load / static_cast<double>(servers);
  return b / (1.0 - rho + rho * b);
}

double mmc_mean_wait(std::uint32_t servers, double lambda, double mu) {
  MCSIM_REQUIRE(lambda > 0.0 && mu > 0.0, "rates must be positive");
  const double a = lambda / mu;
  MCSIM_REQUIRE(a < static_cast<double>(servers), "system must be stable");
  const double c = erlang_c(servers, a);
  return c / (static_cast<double>(servers) * mu - lambda);
}

double mmc_mean_response(std::uint32_t servers, double lambda, double mu) {
  return mmc_mean_wait(servers, lambda, mu) + 1.0 / mu;
}

double mmc_mean_in_system(std::uint32_t servers, double lambda, double mu) {
  return lambda * mmc_mean_response(servers, lambda, mu);
}

double mm1_mean_response(double lambda, double mu) {
  MCSIM_REQUIRE(lambda > 0.0 && mu > lambda, "M/M/1 must be stable");
  return 1.0 / (mu - lambda);
}

double mg1_mean_wait(double lambda, double mean_service, double service_variance) {
  MCSIM_REQUIRE(lambda > 0.0 && mean_service > 0.0, "parameters must be positive");
  const double rho = lambda * mean_service;
  MCSIM_REQUIRE(rho < 1.0, "M/G/1 must be stable");
  const double second_moment = service_variance + mean_service * mean_service;
  return lambda * second_moment / (2.0 * (1.0 - rho));
}

double mg1_mean_response(double lambda, double mean_service, double service_variance) {
  return mg1_mean_wait(lambda, mean_service, service_variance) + mean_service;
}

}  // namespace mcsim::queueing
