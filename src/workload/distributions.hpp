// The continuous distributions the DAS-t-900 service-time model
// (das_workload.hpp) is composed from: lognormal bodies, a two-component
// mixture of them, truncated to the 900 s cut.
#pragma once

#include <memory>
#include <vector>

#include "workload/distribution.hpp"

namespace mcsim {

class LognormalDistribution final : public Distribution {
 public:
  /// Parameters of the underlying normal (mu, sigma).
  LognormalDistribution(double mu, double sigma);
  /// Construct from the desired mean and CV of the lognormal itself.
  static LognormalDistribution from_mean_cv(double mean, double cv);
  double sample(Rng& rng) const override;
  double mean() const override;
  double variance() const override;

 private:
  double mu_, sigma_;
};

/// Rejection-truncation of an inner distribution to [lo, hi]: variates are
/// redrawn while outside the range (up to a bound, then clamped). Mean and
/// variance are estimated once at construction by a fixed-seed Monte Carlo
/// pass so they are deterministic.
class TruncatedDistribution final : public Distribution {
 public:
  TruncatedDistribution(DistributionPtr inner, double lo, double hi);
  double sample(Rng& rng) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }

 private:
  DistributionPtr inner_;
  double lo_, hi_;
  double mean_, variance_;
};

/// Finite mixture with component weights.
class MixtureDistribution final : public Distribution {
 public:
  MixtureDistribution(std::vector<DistributionPtr> components, std::vector<double> weights);
  double sample(Rng& rng) const override;
  double mean() const override;
  double variance() const override;

 private:
  std::vector<DistributionPtr> components_;
  std::vector<double> cumulative_;
  std::vector<double> weights_;
};

}  // namespace mcsim
