#include "core/engine.hpp"

#include <algorithm>
#include <chrono>

#include "util/assert.hpp"
#include "util/rusage.hpp"

namespace mcsim {

std::uint32_t SimulationConfig::total_processors() const {
  std::uint32_t total = 0;
  for (std::uint32_t size : cluster_sizes) total += size;
  return total;
}

void SimulationConfig::validate() const {
  MCSIM_REQUIRE(!cluster_sizes.empty(), "config: cluster_sizes must name at least one cluster");
  for (std::uint32_t size : cluster_sizes) {
    MCSIM_REQUIRE(size > 0, "config: every cluster needs at least one processor");
  }
  MCSIM_REQUIRE(cluster_speeds.empty() || cluster_speeds.size() == cluster_sizes.size(),
                "config: cluster_speeds has " + std::to_string(cluster_speeds.size()) +
                    " entries but cluster_sizes has " +
                    std::to_string(cluster_sizes.size()) +
                    " (leave speeds empty for a homogeneous system)");
  for (double speed : cluster_speeds) {
    MCSIM_REQUIRE(speed > 0.0, "config: cluster speeds must be positive");
  }
  MCSIM_REQUIRE(total_jobs > 0, "config: total_jobs must be positive");
  MCSIM_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
                "config: warmup_fraction must be in [0,1), got " +
                    std::to_string(warmup_fraction));
  MCSIM_REQUIRE(batch_count > 0, "config: batch_count must be positive");
  MCSIM_REQUIRE(workload.arrival_rate > 0.0, "config: arrival_rate must be positive");
  MCSIM_REQUIRE(workload.extension_factor >= 1.0,
                "config: extension_factor must be >= 1");
  MCSIM_REQUIRE(instability_backlog_fraction >= 0.0 && instability_backlog_fraction <= 1.0,
                "config: instability_backlog_fraction must be in [0,1]");
  MCSIM_REQUIRE(backlog == 0 || trace_workload == nullptr,
                "config: a constant backlog draws synthetic jobs; a trace cannot "
                "be replayed at constant backlog");
  if (trace_workload != nullptr) {
    MCSIM_REQUIRE(trace_workload->usable_records > 0,
                  "config: trace workload has no replayable records" +
                      (trace_workload->source_path.empty()
                           ? std::string()
                           : " (" + trace_workload->source_path + ")"));
    MCSIM_REQUIRE(trace_workload->arrival_scale > 0.0,
                  "config: trace arrival_scale must be positive");
    MCSIM_REQUIRE(total_jobs <= trace_workload->usable_records,
                  "config: total_jobs (" + std::to_string(total_jobs) +
                      ") exceeds the trace length (" +
                      std::to_string(trace_workload->usable_records) + ")");
    if (is_single_cluster_policy(policy)) {
      MCSIM_REQUIRE(!trace_workload->split_jobs,
                    "config: SC replay uses total requests (split_jobs = false)");
    } else {
      MCSIM_REQUIRE(trace_workload->num_clusters == cluster_sizes.size(),
                    "config: trace workload num_clusters (" +
                        std::to_string(trace_workload->num_clusters) +
                        ") disagrees with the system layout (" +
                        std::to_string(cluster_sizes.size()) + " clusters)");
    }
  }
  if (is_single_cluster_policy(policy)) {
    MCSIM_REQUIRE(cluster_sizes.size() == 1, "config: SC runs on a single cluster");
    MCSIM_REQUIRE(!workload.split_jobs,
                  "config: SC uses total requests (split_jobs = false)");
  } else {
    MCSIM_REQUIRE(workload.num_clusters == cluster_sizes.size(),
                  "config: workload.num_clusters (" +
                      std::to_string(workload.num_clusters) +
                      ") disagrees with the system layout (" +
                      std::to_string(cluster_sizes.size()) + " clusters)");
  }
}

namespace {
// Validates first: the engine's members (Multicluster, the job source) are
// constructed from the config in the init list, so the config-level checks
// must fire before any of them can trip on garbage.
Multicluster make_system(const SimulationConfig& config) {
  config.validate();
  if (config.cluster_speeds.empty()) return Multicluster(config.cluster_sizes);
  return Multicluster(config.cluster_sizes, config.cluster_speeds);
}

// Adapts the synthetic WorkloadGenerator to the pull-based JobSource the
// engine consumes; never exhausts. A backlog run draws job bodies only (no
// arrival clock): the engine stamps each job when it submits it.
class SyntheticSource final : public JobSource {
 public:
  SyntheticSource(WorkloadConfig config, std::uint64_t seed, bool bodies_only)
      : generator_(std::move(config), seed), bodies_only_(bodies_only) {}

  bool next(JobSpec& out) override {
    if (bodies_only_) {
      generator_.next_body_into(out);
    } else {
      generator_.next_into(out);
    }
    return true;
  }

 private:
  WorkloadGenerator generator_;
  bool bodies_only_;
};

std::unique_ptr<JobSource> make_source(const SimulationConfig& config) {
  if (config.trace_workload != nullptr) {
    return std::make_unique<TraceWorkload>(config.trace_workload);
  }
  return std::make_unique<SyntheticSource>(config.workload, config.seed,
                                           config.backlog > 0);
}
}  // namespace

MulticlusterSimulation::MulticlusterSimulation(SimulationConfig config)
    : config_(std::move(config)),
      system_(make_system(config_)),
      source_(make_source(config_)),
      utilization_(system_.total_processors(), 0.0) {
  scheduler_ = config_.scheduler_factory
                   ? config_.scheduler_factory(*this)
                   : make_scheduler(config_.policy, config_.pipeline, *this);
  queue_length_.start(0.0, 0.0);
  cluster_busy_.resize(system_.num_clusters());
  for (auto& stat : cluster_busy_) stat.start(0.0, 0.0);
  warmup_completions_ =
      static_cast<std::uint64_t>(config_.warmup_fraction * static_cast<double>(config_.total_jobs));
  const std::uint64_t measured = config_.total_jobs - warmup_completions_;
  const std::uint64_t batch_size = std::max<std::uint64_t>(1, measured / config_.batch_count);
  response_batches_ = std::make_unique<BatchMeans>(batch_size);
  result_.policy = scheduler_->name();
}

void MulticlusterSimulation::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    ctr_arrivals_ = ctr_started_ = ctr_finished_ = nullptr;
    ctr_attempts_ = ctr_rejects_ = ctr_rejects_local_ = nullptr;
    calendar_series_ = nullptr;
    return;
  }
  ctr_arrivals_ = &metrics_->counter("jobs.arrived");
  ctr_started_ = &metrics_->counter("jobs.started");
  ctr_finished_ = &metrics_->counter("jobs.finished");
  ctr_attempts_ = &metrics_->counter("placement.attempts");
  ctr_rejects_ = &metrics_->counter("placement.rejects");
  ctr_rejects_local_ = &metrics_->counter("placement.rejects.local");
  calendar_series_ = &metrics_->series("calendar.pending");
  calendar_series_->start(0.0, 0.0);
}

void MulticlusterSimulation::emit(obs::EventKind kind, const Job& job, double value,
                                  std::int16_t cluster) {
  obs::TraceEvent event;
  event.time = now();
  event.value = value;
  event.job = job.spec.id;
  event.size = job.spec.total_size;
  event.kind = kind;
  event.components = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(job.spec.component_count(), 255));
  event.cluster = cluster;
  sink_->record(event);
}

void MulticlusterSimulation::finish_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("run.wall_seconds") = result_.wall_seconds;
  metrics_->gauge("run.events_per_sec") =
      result_.wall_seconds > 0.0
          ? static_cast<double>(result_.events_executed) / result_.wall_seconds
          : 0.0;
  metrics_->gauge("run.event_loop_seconds") = event_loop_seconds_;
  metrics_->gauge("run.events_executed_per_sec") =
      event_loop_seconds_ > 0.0
          ? static_cast<double>(result_.events_executed) / event_loop_seconds_
          : 0.0;
  metrics_->gauge("run.peak_rss_bytes") = static_cast<double>(peak_rss_bytes());
  metrics_->gauge("run.sim_end_time") = now();
  metrics_->gauge("run.unstable") = result_.unstable ? 1.0 : 0.0;
  // Snapshot the engine's own time-weighted processes (measurement window,
  // i.e. post-warmup) into the registry so the manifest carries them.
  metrics_->series("queue.waiting") = queue_length_;
  for (std::uint32_t c = 0; c < cluster_busy_.size(); ++c) {
    const std::string prefix = "cluster." + std::to_string(c);
    metrics_->series(prefix + ".busy") = cluster_busy_[c];
    metrics_->gauge(prefix + ".busy_fraction") = result_.per_cluster_busy_fraction[c];
  }
}

SimulationResult MulticlusterSimulation::run() {
  MCSIM_REQUIRE(!ran_, "MulticlusterSimulation::run may be called once");
  ran_ = true;
  const auto wall_start = std::chrono::steady_clock::now();
  // The heap holds one departure per running job (<= total processors; the
  // pending arrival waits beside it), so it never reallocates mid-run.
  events_.reserve(static_cast<std::size_t>(system_.total_processors()));
  if (warmup_completions_ == 0) begin_measurement();
  if (config_.backlog > 0) {
    // Prime the backlog at t = 0; each departure then submits one more.
    for (std::uint64_t i = 0; i < config_.backlog; ++i) submit_backlog_job();
    queue_length_.update(0.0, static_cast<double>(scheduler_->queued_jobs()));
  } else {
    schedule_next_arrival();
  }
  const auto loop_start = std::chrono::steady_clock::now();
  events_.run([this](const Event& event) {
    if (event.kind() == Event::Kind::kArrival) {
      on_arrival(event.job);
    } else {
      on_departure(event.job);
    }
    if (calendar_series_ != nullptr) {
      calendar_series_->update(now(), static_cast<double>(events_.pending()));
    }
  });
  event_loop_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - loop_start)
          .count();
  result_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  result_.completed_jobs = completions_;
  result_.end_time = now();
  result_.events_executed = events_.executed();
  result_.final_queue_lengths = scheduler_->queue_lengths();
  result_.response_ci = response_batches_->confidence(result_.response_all);
  result_.response_p95 = response_p95_.value();
  result_.busy_fraction = utilization_.busy_fraction(now());
  result_.carried_net_utilization = utilization_.net_utilization(now());
  result_.mean_queue_length = queue_length_.time_average(now());
  result_.per_cluster_busy_fraction.reserve(cluster_busy_.size());
  for (std::uint32_t c = 0; c < cluster_busy_.size(); ++c) {
    result_.per_cluster_busy_fraction.push_back(
        cluster_busy_[c].time_average(now()) /
        static_cast<double>(system_.cluster(c).capacity()));
  }

  // Offered load over the measurement window (arrival-side accounting; for
  // a stable run this matches the carried load).
  const double window = last_arrival_time_ - measure_start_time_;
  if (window > 0.0 && measuring_) {
    const double capacity = static_cast<double>(system_.total_processors()) * window;
    result_.offered_gross_utilization = arrived_gross_work_ / capacity;
    result_.offered_net_utilization = arrived_net_work_ / capacity;
  }
  finish_metrics();
  return result_;
}

void MulticlusterSimulation::schedule_next_arrival() {
  if (arrivals_generated_ >= config_.total_jobs) return;
  // The source fills a pooled job's spec in place, reusing the vectors a
  // recycled job already owns; the arrival event carries the job pointer.
  JobPtr job = pool_.acquire();
  if (!source_->next(job->spec)) {  // finite source (trace) ran dry
    pool_.release(job);
    return;
  }
  ++arrivals_generated_;
  events_.push(job->spec.arrival_time, Event::Kind::kArrival, job);
}

// Constant-backlog arrivals bypass the instability guards: the queue
// length is constant by construction.
void MulticlusterSimulation::submit_backlog_job() {
  JobPtr job = pool_.acquire();
  source_->next(job->spec);
  job->spec.arrival_time = now();
  ++arrivals_generated_;
  if (ctr_arrivals_ != nullptr) ++*ctr_arrivals_;
  if (sink_ != nullptr) {
    emit(obs::EventKind::kArrival, *job, 0.0,
         static_cast<std::int16_t>(job->spec.origin_queue));
  }
  scheduler_->submit(job);
}

void MulticlusterSimulation::on_arrival(JobPtr job) {
  last_arrival_time_ = now();
  if (measuring_) {
    arrived_gross_work_ +=
        static_cast<double>(job->spec.total_size) * job->spec.gross_service_time;
    arrived_net_work_ +=
        static_cast<double>(job->spec.total_size) * job->spec.service_time;
  }
  if (ctr_arrivals_ != nullptr) ++*ctr_arrivals_;
  if (sink_ != nullptr) {
    emit(obs::EventKind::kArrival, *job, 0.0,
         static_cast<std::int16_t>(job->spec.origin_queue));
  }
  scheduler_->submit(job);
  queue_length_.update(now(), static_cast<double>(scheduler_->queued_jobs()));

  if (scheduler_->max_queue_length() > config_.instability_queue_limit) {
    result_.unstable = true;
    events_.stop();
    return;
  }
  if (arrivals_generated_ >= config_.total_jobs) {
    // Last arrival just entered: a backlog still growing at this point means
    // the offered load exceeds the policy's maximal utilization.
    const auto backlog_limit = static_cast<std::size_t>(
        std::max(100.0, config_.instability_backlog_fraction *
                            static_cast<double>(config_.total_jobs)));
    if (scheduler_->queued_jobs() > backlog_limit) {
      result_.unstable = true;
      events_.stop();
      return;
    }
  }
  schedule_next_arrival();
}

void MulticlusterSimulation::record_placement(Job& job, bool success,
                                              std::int16_t cluster) {
  if (metrics_ != nullptr) {
    ++*ctr_attempts_;
    if (!success) {
      ++*ctr_rejects_;
      if (cluster >= 0) ++*ctr_rejects_local_;
    }
  }
  if (sink_ != nullptr) {
    if (!job.considered) {
      job.considered = true;
      emit(obs::EventKind::kHeadOfQueue, job, 0.0, cluster);
    }
    emit(obs::EventKind::kPlacementAttempt, job, 0.0, cluster);
    if (!success) emit(obs::EventKind::kPlacementReject, job, 0.0, cluster);
  }
}

void MulticlusterSimulation::start_job(JobPtr job) {
  MCSIM_REQUIRE(!job->started(), "job started twice");
  MCSIM_REQUIRE(!job->allocation.empty(), "job started without a placement");
  job->start_time = now();
  system_.allocate(job->allocation);
  // A co-allocated job's tasks synchronise, so its execution stretches by
  // the slowest cluster it touches. With speed 1.0 everywhere (the paper)
  // the division is skipped: x / 1.0 is x, bit for bit.
  const double runtime =
      system_.unit_speeds()
          ? job->spec.gross_service_time
          : job->spec.gross_service_time / system_.slowest_speed(job->allocation);
  utilization_.on_job_start(now(), job->spec.total_size, runtime,
                            job->spec.service_time);
  for (const auto& placement : job->allocation) {
    cluster_busy_[placement.cluster].update(
        now(), static_cast<double>(system_.cluster(placement.cluster).busy()));
  }
  if (ctr_started_ != nullptr) ++*ctr_started_;
  if (sink_ != nullptr) {
    emit(obs::EventKind::kStart, *job, now() - job->spec.arrival_time,
         static_cast<std::int16_t>(job->allocation.front().cluster));
  }
  events_.push(now() + runtime, Event::Kind::kDeparture, job);
}

void MulticlusterSimulation::on_departure(JobPtr job) {
  system_.release(job->allocation);
  utilization_.on_job_finish(now(), job->spec.total_size);
  for (const auto& placement : job->allocation) {
    cluster_busy_[placement.cluster].update(
        now(), static_cast<double>(system_.cluster(placement.cluster).busy()));
  }
  ++completions_;

  // Decompose the response into the SWF quantities (wait + elapsed run
  // time) and sum them, instead of computing now - arrival directly, so a
  // trace exported as wait/run fields reconstructs the response — and
  // therefore every response-time statistic — bit-exactly.
  const double wait = job->start_time - job->spec.arrival_time;
  const double run_elapsed = now() - job->start_time;
  if (ctr_finished_ != nullptr) ++*ctr_finished_;
  if (sink_ != nullptr) {
    emit(obs::EventKind::kFinish, *job, run_elapsed,
         static_cast<std::int16_t>(job->allocation.front().cluster));
  }

  if (!measuring_ && completions_ >= warmup_completions_) begin_measurement();

  if (measuring_) {
    const double response = wait + run_elapsed;
    result_.response_all.add(response);
    result_.wait_all.add(wait);
    response_batches_->add(response);
    response_p95_.add(response);
    if (job->queue_class == QueueClass::kLocal) result_.response_local.add(response);
    else result_.response_global.add(response);
    if (job->spec.total_size <= 16) result_.response_small.add(response);
    else if (job->spec.total_size <= 64) result_.response_medium.add(response);
    else result_.response_large.add(response);
    result_.slowdown_all.add(response / job->spec.gross_service_time);
    ++result_.measured_jobs;
  }

  if (observer_) observer_(*job, now());

  if (config_.backlog > 0) {
    // One in for one out, submitted before the scheduler reacts to the
    // departure; the last completion ends the run.
    if (completions_ >= config_.total_jobs) {
      events_.stop();
      pool_.release(job);
      return;
    }
    submit_backlog_job();
  }
  scheduler_->on_departure();
  queue_length_.update(now(), static_cast<double>(scheduler_->queued_jobs()));
  // The job is out of every queue, off the machine, and fully accounted:
  // recycle it. Departure order is deterministic, so the pool's free list —
  // and with it the addresses handed to future arrivals — replays
  // identically run over run.
  pool_.release(job);
}

void MulticlusterSimulation::begin_measurement() {
  measuring_ = true;
  measure_start_time_ = now();
  utilization_.reset_at(now());
  queue_length_.update(now(), static_cast<double>(scheduler_->queued_jobs()));
  queue_length_.reset_at(now());
  for (std::uint32_t c = 0; c < cluster_busy_.size(); ++c) {
    cluster_busy_[c].update(now(), static_cast<double>(system_.cluster(c).busy()));
    cluster_busy_[c].reset_at(now());
  }
}

SimulationResult run_simulation(const SimulationConfig& config) {
  MulticlusterSimulation simulation(config);
  return simulation.run();
}

}  // namespace mcsim
