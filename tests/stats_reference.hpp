// Reference copies of the statistics folds, kept in the tests as oracles.
//
// exact_quantile        -- the exact (linearly interpolated) quantile of a
//                          sorted sample; the oracle the P² estimator is
//                          checked against.
// BatchMeansReference   -- BatchMeans as it was before its lean form: a
//                          full RunningStats for the current batch and a
//                          second one over every observation.
// P2QuantileReference   -- P2Quantile's fold as it was before it moved
//                          into the header (and its first five samples
//                          into a helper).
//
// stats_fold_test compares the production folds with these bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/welford.hpp"
#include "util/assert.hpp"

namespace mcsim {

/// Exact quantile with linear interpolation; `sorted` must be non-empty and
/// ascending.
inline double exact_quantile(const std::vector<double>& sorted, double q) {
  MCSIM_REQUIRE(!sorted.empty(), "exact_quantile needs a non-empty sample");
  MCSIM_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace reference {

class BatchMeansReference {
 public:
  explicit BatchMeansReference(std::uint64_t batch_size) : batch_size_(batch_size) {}

  void add(double x) {
    all_.add(x);
    current_.add(x);
    if (current_.count() == batch_size_) {
      batch_means_.push_back(current_.mean());
      current_.reset();
    }
  }

  [[nodiscard]] const std::vector<double>& means() const { return batch_means_; }

  [[nodiscard]] double grand_mean() const {
    if (batch_means_.empty()) return all_.mean();
    RunningStats s;
    for (double m : batch_means_) s.add(m);
    return s.mean();
  }

  [[nodiscard]] ConfidenceInterval confidence(double confidence = 0.95) const {
    RunningStats s;
    for (double m : batch_means_) s.add(m);
    if (s.count() < 2) return mean_confidence(all_, confidence);
    return mean_confidence(s, confidence);
  }

 private:
  std::uint64_t batch_size_;
  RunningStats current_;
  RunningStats all_;
  std::vector<double> batch_means_;
};

class P2QuantileReference {
 public:
  explicit P2QuantileReference(double q) : q_(q) {
    desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
    increments_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
  }

  void add(double x);

  [[nodiscard]] double value() const {
    if (count_ == 0) return 0.0;
    if (count_ < 5) {
      std::array<double, 5> copy = heights_;
      std::sort(copy.begin(), copy.begin() + static_cast<long>(count_));
      const auto idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(count_ - 1),
                           std::floor(q_ * static_cast<double>(count_))));
      return copy[idx];
    }
    return heights_[2];
  }

 private:
  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

inline void P2QuantileReference::add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
    }
    return;
  }
  ++count_;

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right_gap = positions_[i + 1] - positions_[i];
    const double left_gap = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double hp = heights_[i + 1];
      const double hm = heights_[i - 1];
      const double h = heights_[i];
      const double np = positions_[i + 1];
      const double nm = positions_[i - 1];
      const double n = positions_[i];
      double candidate = h + sign / (np - nm) * ((n - nm + sign) * (hp - h) / (np - n) +
                                                 (np - n - sign) * (h - hm) / (n - nm));
      if (hm < candidate && candidate < hp) {
        heights_[i] = candidate;
      } else {
        const int j = i + static_cast<int>(sign);
        heights_[i] = h + sign * (heights_[j] - h) / (positions_[j] - n);
      }
      positions_[i] += sign;
    }
  }
}

}  // namespace reference
}  // namespace mcsim
