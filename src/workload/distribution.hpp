// Abstract random-variate distribution.
//
// The synthetic workload's job sizes and service times are Distributions.
// Means and variances are analytic wherever the sweep driver needs them to
// convert a target utilization into an arrival rate.
#pragma once

#include <memory>

#include "util/rng.hpp"

namespace mcsim {

class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draw one variate.
  [[nodiscard]] virtual double sample(Rng& rng) const = 0;

  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double variance() const = 0;

  /// Coefficient of variation; 0 if the mean is 0.
  [[nodiscard]] double cv() const;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

}  // namespace mcsim
