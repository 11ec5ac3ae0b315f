// Independent replications: run the same scenario/load R times with
// different seeds and combine the per-run means into a replication-level
// confidence interval. Complements the single-run batch-means CI — the
// replication CI is unbiased by residual autocorrelation and is what a
// careful study quotes for headline numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/confidence.hpp"

namespace mcsim {

namespace exp {
struct ScenarioSpec;
}  // namespace exp

struct ReplicationResult {
  /// Per-replication mean responses (one entry per stable replication).
  std::vector<double> replication_means;
  /// Replications that went unstable (excluded from the CI).
  std::uint32_t unstable_replications = 0;
  /// CI over the replication means.
  ConfidenceInterval response_ci;
  /// Pooled mean busy fraction over stable replications.
  double mean_busy_fraction = 0.0;

  [[nodiscard]] std::uint32_t stable_replications() const {
    return static_cast<std::uint32_t>(replication_means.size());
  }
};

/// Replication set described entirely by a spec (mode kReplications):
/// utilization, jobs, replication count, base seed and parallelism all come
/// from the spec; replication r runs with seed spec.seed + r through
/// exp::to_simulation_config, fanned out over spec.parallelism worker
/// threads (1 = serial, 0 = all hardware threads). Results are bit-identical
/// for every parallelism level: each replication is fully determined by its
/// seed and the per-replication statistics are always folded together in
/// replication order.
ReplicationResult run_replications(const exp::ScenarioSpec& spec);

}  // namespace mcsim
