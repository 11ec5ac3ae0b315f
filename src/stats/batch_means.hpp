// Batch-means output analysis for steady-state simulations.
//
// Response-time observations inside one long run are autocorrelated, so the
// naive i.i.d. CI is too narrow. We group consecutive observations into
// batches; batch means are approximately independent for large batches, and
// the CI is computed over them.
//
// The accumulator keeps only what the batches need: the current batch's
// count and running mean. The raw statistics over every observation are
// the caller's (the engine folds them into SimulationResult::response_all
// anyway), so the fallbacks for a run too short to close two batches take
// them as an argument instead of keeping a second copy.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/welford.hpp"

namespace mcsim {

class BatchMeans {
 public:
  /// `batch_size` observations per batch (the final partial batch is dropped).
  explicit BatchMeans(std::uint64_t batch_size);

  void add(double x) {
    // RunningStats::add's mean update, term for term, without the spread
    // and extremes a batch mean never reads.
    ++current_count_;
    current_mean_ += (x - current_mean_) / static_cast<double>(current_count_);
    if (current_count_ == batch_size_) {
      batch_means_.push_back(current_mean_);
      current_count_ = 0;
      current_mean_ = 0.0;
    }
  }

  [[nodiscard]] std::uint64_t batch_size() const { return batch_size_; }
  [[nodiscard]] std::size_t completed_batches() const { return batch_means_.size(); }
  [[nodiscard]] const std::vector<double>& means() const { return batch_means_; }

  /// Grand mean over completed batches (falls back to `raw`, the
  /// statistics of every observation added, if no batch completed).
  [[nodiscard]] double grand_mean(const RunningStats& raw) const;

  /// CI over completed batch means (falls back to the optimistic i.i.d.
  /// CI of `raw` if fewer than two batches completed).
  [[nodiscard]] ConfidenceInterval confidence(const RunningStats& raw,
                                              double confidence = 0.95) const;

  /// Lag-1 autocorrelation of the batch means; near zero indicates the
  /// batches are large enough.
  [[nodiscard]] double lag1_autocorrelation() const;

 private:
  std::uint64_t batch_size_;
  std::uint64_t current_count_ = 0;
  double current_mean_ = 0.0;
  std::vector<double> batch_means_;
};

}  // namespace mcsim
