#include "core/saturation.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"

namespace mcsim {

SaturationSimulation::SaturationSimulation(SaturationConfig config)
    : config_(std::move(config)),
      system_(config_.cluster_sizes),
      generator_(config_.workload, config_.seed),
      utilization_(system_.total_processors(), 0.0) {
  MCSIM_REQUIRE(config_.backlog > 0, "backlog must be positive");
  MCSIM_REQUIRE(config_.total_completions > 0, "need completions to measure");
  if (config_.engine == EngineKind::kParallel) {
    ParallelConfig parallel;
    parallel.lp_count = system_.num_clusters() + 1;
    parallel.worker_threads =
        config_.engine_threads != 0
            ? config_.engine_threads
            : std::max(1U, std::thread::hardware_concurrency());
    // Saturation draws synthetic service times (unbounded below): no
    // usable service-time bound, so the horizon adapts from density.
    sim_.configure_parallel(parallel);
    pool_.configure_shards(parallel.lp_count);
  }
  scheduler_ = make_scheduler(config_.policy, *this, config_.placement);
  warmup_completions_ = static_cast<std::uint64_t>(config_.warmup_fraction *
                                                   static_cast<double>(config_.total_completions));
}

SaturationResult SaturationSimulation::run() {
  MCSIM_REQUIRE(!ran_, "SaturationSimulation::run may be called once");
  ran_ = true;

  // Prime the backlog at t = 0; submissions trigger scheduling as usual.
  for (std::uint64_t i = 0; i < config_.backlog; ++i) refill();

  sim_.run();

  SaturationResult result;
  result.policy = scheduler_->name();
  result.completions = completions_;
  result.end_time = sim_.now();
  result.maximal_gross_utilization = utilization_.busy_fraction(sim_.now());
  const double window = sim_.now() - measure_start_;
  if (window > 0.0) {
    // Busy fraction counts extended (gross) occupancy; scale the measured
    // net work by the same window to get the net maximum.
    result.maximal_net_utilization =
        net_work_started_ / (static_cast<double>(system_.total_processors()) * window);
  }
  return result;
}

void SaturationSimulation::refill() {
  // Filled in place, like the main engine's arrivals: a recycled job keeps
  // its spec's buffers.
  JobPtr job = pool_.acquire();
  generator_.next_body_into(job->spec);
  job->spec.arrival_time = sim_.now();
  scheduler_->submit(job);
}

void SaturationSimulation::start_job(JobPtr job) {
  MCSIM_REQUIRE(!job->started(), "job started twice");
  MCSIM_REQUIRE(!job->allocation.empty(), "job started without a placement");
  job->start_time = sim_.now();
  system_.allocate(job->allocation);
  utilization_.on_job_start(sim_.now(), job->spec.total_size, job->spec.gross_service_time,
                            job->spec.service_time);
  if (measuring_) {
    net_work_started_ += static_cast<double>(job->spec.total_size) * job->spec.service_time;
  }
  // Saturation jobs never co-allocate across clusters under GS/SC, but LS
  // and LP layouts can: the same LP rule as the main engine applies.
  sim_.set_event_lp(job->allocation.size() == 1
                        ? 1U + static_cast<std::uint32_t>(job->allocation.front().cluster)
                        : 0U);
  sim_.schedule_in(job->spec.gross_service_time, [this, job]() { on_departure(job); });
}

void SaturationSimulation::on_departure(JobPtr job) {
  system_.release(job->allocation);
  utilization_.on_job_finish(sim_.now(), job->spec.total_size);
  pool_.release(job);
  ++completions_;

  if (!measuring_ && completions_ >= warmup_completions_) {
    measuring_ = true;
    measure_start_ = sim_.now();
    utilization_.reset_at(sim_.now());
  }
  if (completions_ >= config_.total_completions) {
    sim_.stop();
    return;
  }
  // Keep the backlog constant: one in for one out, then let the scheduler
  // react to the departure.
  refill();
  scheduler_->on_departure();
}

SaturationResult run_saturation(const SaturationConfig& config) {
  SaturationSimulation simulation(config);
  return simulation.run();
}

}  // namespace mcsim
