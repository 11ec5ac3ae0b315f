#include "workload/discrete.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> weights)
    : values_(std::move(values)), probs_(std::move(weights)) {
  MCSIM_REQUIRE(!values_.empty(), "discrete distribution needs a non-empty support");
  MCSIM_REQUIRE(values_.size() == probs_.size(), "values/weights size mismatch");
  std::unordered_set<double> seen;
  for (double v : values_) {
    MCSIM_REQUIRE(seen.insert(v).second, "discrete distribution values must be distinct");
  }
  double total = 0.0;
  for (double w : probs_) {
    MCSIM_REQUIRE(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  MCSIM_REQUIRE(total > 0.0, "weights must not all be zero");
  for (double& w : probs_) w /= total;

  mean_ = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) mean_ += probs_[i] * values_[i];
  double second = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) second += probs_[i] * values_[i] * values_[i];
  variance_ = std::max(0.0, second - mean_ * mean_);

  build_alias_table();
}

void DiscreteDistribution::build_alias_table() {
  const std::size_t n = values_.size();
  alias_prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = probs_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    alias_prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) alias_prob_[i] = 1.0;
  for (std::uint32_t i : small) alias_prob_[i] = 1.0;  // numerical leftovers
}

double DiscreteDistribution::sample(Rng& rng) const { return values_[sample_index(rng)]; }

std::string DiscreteDistribution::describe() const {
  return str_printf("Discrete(%zu values, mean=%.3f, cv=%.3f)", values_.size(), mean_, cv());
}

double DiscreteDistribution::probability_of(double value) const {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == value) return probs_[i];
  }
  return 0.0;
}

double DiscreteDistribution::min_value() const {
  return *std::min_element(values_.begin(), values_.end());
}

double DiscreteDistribution::max_value() const {
  return *std::max_element(values_.begin(), values_.end());
}

DiscreteDistribution DiscreteDistribution::truncate_above(double cut, double* removed_mass) const {
  std::vector<double> values;
  std::vector<double> weights;
  double removed = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] <= cut) {
      values.push_back(values_[i]);
      weights.push_back(probs_[i]);
    } else {
      removed += probs_[i];
    }
  }
  MCSIM_REQUIRE(!values.empty(), "truncation removed the entire support");
  if (removed_mass != nullptr) *removed_mass = removed;
  return DiscreteDistribution(std::move(values), std::move(weights));
}

}  // namespace mcsim
