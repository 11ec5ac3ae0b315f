// Job specifications and the workload generator that feeds the simulator.
//
// A JobSpec is everything the schedulers need to know about one job:
// arrival time, total size, the component tuple (an *unordered request* —
// the scheduler picks the clusters), net and gross (extended) service
// times, and the local queue the job was submitted to.
//
// The generator draws each field from an independent named RNG substream,
// so two generators with the same master seed but different arrival rates
// produce the *same* job bodies (common random numbers across sweep points
// and policies).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/discrete.hpp"
#include "workload/distribution.hpp"
#include "workload/request.hpp"

namespace mcsim {

struct JobSpec {
  std::uint64_t id = 0;
  double arrival_time = 0.0;
  std::uint32_t total_size = 0;
  /// How this job's request is structured (unordered in the paper's study).
  RequestType request_type = RequestType::kUnordered;
  /// Component sizes, non-increasing. A single entry means a
  /// single-component (local) job; for total requests this is {total_size}.
  /// For flexible requests the split is decided at placement time and this
  /// holds the single pre-split total.
  std::vector<std::uint32_t> components;
  /// For ordered requests only: the cluster each component must run on
  /// (parallel to `components`).
  std::vector<std::uint32_t> ordered_clusters;
  /// Net service time (computation + local communication only).
  double service_time = 0.0;
  /// Gross service time: extended by the wide-area communication factor for
  /// multi-component jobs, equal to service_time otherwise.
  double gross_service_time = 0.0;
  /// Index of the local queue this job was submitted to (used by LS/LP).
  std::uint32_t origin_queue = 0;
  /// True when the job spans clusters (and therefore pays the wide-area
  /// extension): multi-component for ordered/unordered requests; larger
  /// than the single-cluster threshold for flexible ones.
  bool wide_area = false;

  [[nodiscard]] bool is_multi_component() const { return components.size() > 1; }
  /// Queue-routing predicate for LS/LP: wide-area jobs are scheduled
  /// globally, the rest stay on their local cluster.
  [[nodiscard]] bool needs_coallocation() const { return wide_area; }
  [[nodiscard]] std::uint32_t component_count() const {
    return static_cast<std::uint32_t>(components.size());
  }
};

struct WorkloadConfig {
  /// Total job-size distribution (a DiscreteDistribution, e.g. das_s_128()).
  DiscreteDistribution size_distribution;
  /// Net service-time distribution (e.g. das_t_900()).
  DistributionPtr service_distribution;
  /// Job-component-size limit (ignored when split_jobs == false).
  std::uint32_t component_limit = 16;
  std::uint32_t num_clusters = 4;
  /// Service-time extension factor for multi-component jobs.
  double extension_factor = 1.25;
  /// Poisson arrival rate (jobs/second).
  double arrival_rate = 0.01;
  /// Per-cluster submission weights (normalised internally). Empty means
  /// balanced. Drives which local queue a job arrives at under LS/LP.
  std::vector<double> queue_weights;
  /// false = total requests (single-cluster SC runs): one component of the
  /// full size, never extended.
  bool split_jobs = true;
  /// Request structure for split jobs (unordered reproduces the paper;
  /// ordered/flexible are the model variants of refs [6,7]).
  RequestType request_type = RequestType::kUnordered;
  /// For flexible requests: jobs up to this size count as single-cluster
  /// (no wide-area extension); larger ones necessarily span clusters.
  std::uint32_t flexible_local_threshold = 32;

  /// E[size * extension] under this config (exact, from the size
  /// distribution); gross work per job = this * E[service].
  [[nodiscard]] double mean_extended_size() const;
  /// Arrival rate that yields gross utilization `rho` on `total_processors`.
  [[nodiscard]] double rate_for_gross_utilization(double rho,
                                                  std::uint32_t total_processors) const;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, std::uint64_t master_seed);

  /// Generate the next arrival (arrival times strictly increase) into
  /// `out`, overwriting every field and reusing the capacity of its
  /// vectors — the JobSource in-place contract (workload/job_source.hpp).
  void next_into(JobSpec& out);

  /// Generate a job body without advancing the arrival clock (used by the
  /// constant-backlog saturation driver, which ignores arrival times);
  /// arrival_time is 0. Fills `out` in place like next_into.
  void next_body_into(JobSpec& out);

  /// next_into / next_body_into as a fresh JobSpec, for cold callers.
  JobSpec next();
  JobSpec next_body();

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t jobs_generated() const { return next_id_; }

 private:
  void fill_body(JobSpec& job);

  WorkloadConfig config_;
  Rng arrival_rng_;
  Rng size_rng_;
  Rng service_rng_;
  Rng queue_rng_;
  Rng placement_rng_;
  std::vector<double> queue_cumulative_;
  /// Ordered requests: the cluster permutation the Fisher-Yates prefix
  /// shuffle works in, kept across draws.
  std::vector<std::uint32_t> cluster_scratch_;
  double clock_ = 0.0;
  std::uint64_t next_id_ = 0;
};

}  // namespace mcsim
