// Numerically stable running moments (Welford's algorithm).
//
// Used for every sample statistic the simulator reports: response times,
// job sizes, service times. The coefficient of variation accessor exists
// because the paper characterises its workload distributions by mean + CV.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace mcsim {

class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  /// Merge another accumulator (parallel reduction / batch combining).
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Coefficient of variation = stddev / mean; 0 if mean == 0.
  [[nodiscard]] double cv() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace mcsim
