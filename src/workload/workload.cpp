#include "workload/workload.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {

double WorkloadConfig::mean_extended_size() const {
  if (!split_jobs) return size_distribution.mean();
  if (request_type == RequestType::kFlexible) {
    // Flexible jobs are extended exactly when they exceed the single-cluster
    // threshold.
    double weighted = 0.0;
    const auto& values = size_distribution.values();
    const auto& probs = size_distribution.probabilities();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const bool wide = values[i] > static_cast<double>(flexible_local_threshold);
      weighted += probs[i] * values[i] * (wide ? extension_factor : 1.0);
    }
    return weighted;
  }
  return ::mcsim::mean_extended_size(size_distribution, component_limit, num_clusters,
                                     extension_factor);
}

double WorkloadConfig::rate_for_gross_utilization(double rho,
                                                  std::uint32_t total_processors) const {
  MCSIM_REQUIRE(service_distribution != nullptr, "workload needs a service distribution");
  return arrival_rate_for_gross_utilization(rho, total_processors, mean_extended_size(),
                                            service_distribution->mean());
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, std::uint64_t master_seed)
    : config_(std::move(config)),
      arrival_rng_(make_stream(master_seed, "arrivals")),
      size_rng_(make_stream(master_seed, "sizes")),
      service_rng_(make_stream(master_seed, "services")),
      queue_rng_(make_stream(master_seed, "queues")),
      placement_rng_(make_stream(master_seed, "ordered-clusters")) {
  MCSIM_REQUIRE(config_.service_distribution != nullptr, "workload needs a service distribution");
  MCSIM_REQUIRE(config_.arrival_rate > 0.0, "arrival rate must be positive");
  MCSIM_REQUIRE(config_.num_clusters > 0, "system must have clusters");
  MCSIM_REQUIRE(config_.extension_factor >= 1.0, "extension factor must be >= 1");

  std::vector<double> weights = config_.queue_weights;
  if (weights.empty()) weights.assign(config_.num_clusters, 1.0);
  MCSIM_REQUIRE(weights.size() == config_.num_clusters,
                "queue weights must match the number of clusters");
  double total = 0.0;
  for (double w : weights) {
    MCSIM_REQUIRE(w >= 0.0, "queue weights must be non-negative");
    total += w;
  }
  MCSIM_REQUIRE(total > 0.0, "queue weights must not all be zero");
  double acc = 0.0;
  queue_cumulative_.reserve(weights.size());
  for (double w : weights) {
    acc += w / total;
    queue_cumulative_.push_back(acc);
  }
  queue_cumulative_.back() = 1.0;

  // Each value that can be drawn is split here, once, through the same
  // split_job_into (and its checks) a job of that size would meet; a job
  // body then copies its entry.
  request_type_ = config_.split_jobs ? config_.request_type : RequestType::kTotal;
  const auto& values = config_.size_distribution.values();
  const auto& probabilities = config_.size_distribution.probabilities();
  size_table_.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (probabilities[i] <= 0.0) continue;
    SizeEntry& entry = size_table_[i];
    entry.total_size = static_cast<std::uint32_t>(values[i]);
    MCSIM_ASSERT(entry.total_size > 0);
    if (!config_.split_jobs || request_type_ == RequestType::kFlexible) {
      // A total request, or a flexible one whose split is decided at
      // placement time: only the total travels.
      entry.components.assign(1, entry.total_size);
      entry.wide_area = config_.split_jobs &&
                        entry.total_size > config_.flexible_local_threshold;
    } else {
      split_job_into(entry.total_size, config_.component_limit, config_.num_clusters,
                     entry.components);
      entry.wide_area = entry.components.size() > 1;
    }
    max_components_ = std::max(max_components_, entry.components.size());
  }
}

void WorkloadGenerator::next_into(JobSpec& out) {
  clock_ += arrival_rng_.exponential_mean(1.0 / config_.arrival_rate);
  out.arrival_time = clock_;
  fill_body(out);
}

void WorkloadGenerator::next_body_into(JobSpec& out) {
  out.arrival_time = 0.0;
  fill_body(out);
}

JobSpec WorkloadGenerator::next() {
  JobSpec job;
  next_into(job);
  return job;
}

JobSpec WorkloadGenerator::next_body() {
  JobSpec job;
  next_body_into(job);
  return job;
}

void WorkloadGenerator::fill_body(JobSpec& job) {
  job.id = next_id_++;
  const SizeEntry& entry = size_table_[config_.size_distribution.sample_index(size_rng_)];
  job.total_size = entry.total_size;
  job.request_type = request_type_;
  job.components.reserve(max_components_);
  job.components.assign(entry.components.begin(), entry.components.end());
  job.wide_area = entry.wide_area;
  // Only ordered requests name clusters; clear what a recycled spec held.
  job.ordered_clusters.clear();
  if (request_type_ == RequestType::kOrdered) {
    // Assign the components to distinct random clusters (a random prefix
    // of a Fisher-Yates shuffle).
    std::vector<std::uint32_t>& clusters = cluster_scratch_;
    clusters.resize(config_.num_clusters);
    for (std::uint32_t i = 0; i < config_.num_clusters; ++i) clusters[i] = i;
    for (std::size_t i = 0; i < job.components.size(); ++i) {
      const auto j =
          i + static_cast<std::size_t>(placement_rng_.uniform_int(clusters.size() - i));
      std::swap(clusters[i], clusters[j]);
    }
    job.ordered_clusters.reserve(config_.num_clusters);
    job.ordered_clusters.assign(clusters.begin(),
                                clusters.begin() + static_cast<long>(job.components.size()));
  }

  job.service_time = config_.service_distribution->sample(service_rng_);
  MCSIM_ASSERT(job.service_time > 0.0);
  job.gross_service_time =
      job.wide_area ? job.service_time * config_.extension_factor : job.service_time;

  // Submission queue: drawn even when the policy ignores it so that the job
  // stream is identical across policies (common random numbers).
  const double u = queue_rng_.uniform();
  job.origin_queue = static_cast<std::uint32_t>(queue_cumulative_.size() - 1);
  for (std::size_t i = 0; i < queue_cumulative_.size(); ++i) {
    if (u < queue_cumulative_[i]) {
      job.origin_queue = static_cast<std::uint32_t>(i);
      break;
    }
  }
}

}  // namespace mcsim
