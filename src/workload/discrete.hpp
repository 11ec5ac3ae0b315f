// Discrete (finite-support) distribution with O(1) sampling via Walker's
// alias method. All job-size distributions (DAS-s-128, DAS-s-64, empirical
// distributions derived from traces) are DiscreteDistributions, so their
// means/variances — which the sweep driver needs to set arrival rates — are
// exact sums, not estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/distribution.hpp"

namespace mcsim {

class DiscreteDistribution final : public Distribution {
 public:
  /// `values[i]` occurs with probability proportional to `weights[i]`.
  /// Values must be distinct; weights non-negative with a positive sum.
  DiscreteDistribution(std::vector<double> values, std::vector<double> weights);

  /// Trivial distribution (always 1); lets configs be default-constructed
  /// before the real distribution is assigned.
  DiscreteDistribution() : DiscreteDistribution({1.0}, {1.0}) {}

  /// values()[sample_index(rng)].
  double sample(Rng& rng) const override;
  /// One draw as an index into values(): the column, then the alias coin
  /// (two draws, uniform_int then uniform). A value of probability 0 is
  /// never returned: its column keeps with probability 0 and no column
  /// defers to it.
  [[nodiscard]] std::size_t sample_index(Rng& rng) const {
    const auto column = static_cast<std::size_t>(rng.uniform_int(values_.size()));
    return rng.uniform() < alias_prob_[column] ? column : alias_[column];
  }
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::string describe() const override;

  [[nodiscard]] std::size_t support_size() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  /// Normalised probabilities aligned with values().
  [[nodiscard]] const std::vector<double>& probabilities() const { return probs_; }
  /// Probability of an exact value (0 if not in the support).
  [[nodiscard]] double probability_of(double value) const;
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

  /// Restrict to values <= cut and renormalise (the DAS-s-64 construction:
  /// "the log cut at 64"). Returns the fraction of probability mass removed.
  [[nodiscard]] DiscreteDistribution truncate_above(double cut, double* removed_mass = nullptr) const;

 private:
  void build_alias_table();

  std::vector<double> values_;
  std::vector<double> probs_;
  std::vector<double> alias_prob_;
  std::vector<std::uint32_t> alias_;
  double mean_ = 0.0;
  double variance_ = 0.0;
};

}  // namespace mcsim
