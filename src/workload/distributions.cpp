#include "workload/distributions.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace mcsim {

double Distribution::cv() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return std::sqrt(variance()) / m;
}

LognormalDistribution::LognormalDistribution(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  MCSIM_REQUIRE(sigma > 0.0, "lognormal sigma must be positive");
}

LognormalDistribution LognormalDistribution::from_mean_cv(double mean, double cv) {
  MCSIM_REQUIRE(mean > 0.0 && cv > 0.0, "lognormal mean and cv must be positive");
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - sigma2 / 2.0;
  return LognormalDistribution(mu, std::sqrt(sigma2));
}

double LognormalDistribution::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.normal());
}

double LognormalDistribution::mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2.0); }

double LognormalDistribution::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

TruncatedDistribution::TruncatedDistribution(DistributionPtr inner, double lo, double hi)
    : inner_(std::move(inner)), lo_(lo), hi_(hi) {
  MCSIM_REQUIRE(inner_ != nullptr, "truncated distribution needs an inner distribution");
  MCSIM_REQUIRE(hi > lo, "truncation range must be non-empty");
  // Deterministic Monte Carlo estimate of the truncated moments.
  Rng probe(0xC0FFEE123456789AULL);
  constexpr int kProbes = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    // Use the same truncation logic as sample().
    double x = inner_->sample(probe);
    for (int attempt = 0; attempt < 64 && (x < lo_ || x > hi_); ++attempt) {
      x = inner_->sample(probe);
    }
    if (x < lo_) x = lo_;
    if (x > hi_) x = hi_;
    sum += x;
    sumsq += x * x;
  }
  mean_ = sum / kProbes;
  variance_ = sumsq / kProbes - mean_ * mean_;
}

double TruncatedDistribution::sample(Rng& rng) const {
  double x = inner_->sample(rng);
  for (int attempt = 0; attempt < 64 && (x < lo_ || x > hi_); ++attempt) {
    x = inner_->sample(rng);
  }
  if (x < lo_) return lo_;
  if (x > hi_) return hi_;
  return x;
}

MixtureDistribution::MixtureDistribution(std::vector<DistributionPtr> components,
                                         std::vector<double> weights)
    : components_(std::move(components)), weights_(std::move(weights)) {
  MCSIM_REQUIRE(components_.size() == weights_.size(), "mixture weights/components mismatch");
  double total = 0.0;
  for (double w : weights_) {
    MCSIM_REQUIRE(w >= 0.0, "mixture weights must be non-negative");
    total += w;
  }
  MCSIM_REQUIRE(total > 0.0, "mixture weights must not all be zero");
  cumulative_.reserve(weights_.size());
  double acc = 0.0;
  for (double& w : weights_) {
    w /= total;
    acc += w;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;
}

double MixtureDistribution::sample(Rng& rng) const {
  const double u = rng.uniform();
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return components_[i]->sample(rng);
  }
  return components_.back()->sample(rng);
}

double MixtureDistribution::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) m += weights_[i] * components_[i]->mean();
  return m;
}

double MixtureDistribution::variance() const {
  // Var = E[second moments] - mean^2 using component raw second moments.
  double second = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const double cm = components_[i]->mean();
    second += weights_[i] * (components_[i]->variance() + cm * cm);
  }
  const double m = mean();
  return second - m * m;
}

}  // namespace mcsim
