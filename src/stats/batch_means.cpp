#include "stats/batch_means.hpp"

#include "util/assert.hpp"

namespace mcsim {

BatchMeans::BatchMeans(std::uint64_t batch_size) : batch_size_(batch_size) {
  MCSIM_REQUIRE(batch_size > 0, "batch size must be positive");
}

double BatchMeans::grand_mean(const RunningStats& raw) const {
  if (batch_means_.empty()) return raw.mean();
  RunningStats s;
  for (double m : batch_means_) s.add(m);
  return s.mean();
}

ConfidenceInterval BatchMeans::confidence(const RunningStats& raw, double confidence) const {
  RunningStats s;
  for (double m : batch_means_) s.add(m);
  if (s.count() < 2) {
    // Not enough batches: fall back to the (optimistic) raw CI.
    return mean_confidence(raw, confidence);
  }
  return mean_confidence(s, confidence);
}

double BatchMeans::lag1_autocorrelation() const {
  const auto n = batch_means_.size();
  if (n < 3) return 0.0;
  RunningStats s;
  for (double m : batch_means_) s.add(m);
  const double mean = s.mean();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = batch_means_[i] - mean;
    den += d * d;
    if (i + 1 < n) num += d * (batch_means_[i + 1] - mean);
  }
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace mcsim
