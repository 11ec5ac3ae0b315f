// Quantile estimation: Jain & Chlamtac's P² streaming estimator, O(1)
// memory, used for long simulation runs (the engine folds every measured
// response into one). add() lives here so that fold inlines into its
// caller.
#pragma once

#include <array>
#include <cstdint>

namespace mcsim {

class P2Quantile {
 public:
  /// `q` in (0,1), e.g. 0.95 for the 95th percentile.
  explicit P2Quantile(double q);

  void add(double x) {
    if (count_ < 5) {
      add_initial(x);
      return;
    }
    ++count_;

    // Locate the cell containing x and update extremes.
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

    // Adjust interior markers with parabolic (falling back to linear) moves.
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
        // Parabolic prediction.
        double candidate = h + sign / (np - nm) * ((n - nm + sign) * (hp - h) / (np - n) +
                                                   (np - n - sign) * (h - hm) / (n - nm));
        if (hm < candidate && candidate < hp) {
          heights_[i] = candidate;
        } else {
          // Linear fallback.
          const int j = i + static_cast<int>(sign);
          heights_[i] = h + sign * (heights_[j] - h) / (positions_[j] - n);
        }
        positions_[i] += sign;
      }
    }
  }

  /// Current estimate (exact until 5 samples have arrived).
  [[nodiscard]] double value() const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  /// The first five samples: stored, then sorted into the markers. Cold:
  /// it runs five times in an estimator's life.
  [[gnu::cold]] void add_initial(double x);

  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

}  // namespace mcsim
