// The multicluster simulation engine: binds a workload source (the
// synthetic generator, or a replayed trace), a scheduling policy and the
// machine model to the DES core, and collects the paper's metrics
// (response times overall and per queue class, gross and net utilization).
//
// A run draws `total_jobs` arrivals from the source — Poisson draws for
// the synthetic workload, recorded submit times for a trace — and executes
// until all of them complete, unless the instability guard trips (a queue
// exceeding `instability_queue_limit` means the offered load is beyond the
// policy's maximal utilization — the response time has no steady state
// there).
//
// With `backlog` > 0 the run keeps a constant backlog instead (paper
// Sect. 4, Table 3, and reference [9]): `backlog` synthetic jobs are submitted
// at t = 0, each departure submits one replacement, and the run stops at
// the `total_jobs`-th completion. The busy fraction is then the maximal
// gross utilization, and `carried_net_utilization` its net counterpart.
//
// The first `warmup_fraction` of completions is discarded from all
// statistics.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/multicluster.hpp"
#include "core/event_core.hpp"
#include "core/job_pool.hpp"
#include "policy/pipeline.hpp"
#include "policy/scheduler_factory.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "stats/batch_means.hpp"
#include "stats/percentile.hpp"
#include "stats/utilization.hpp"
#include "workload/job_source.hpp"
#include "workload/trace_workload.hpp"
#include "workload/workload.hpp"

namespace mcsim {

struct SimulationConfig {
  PolicyKind policy = PolicyKind::kGS;
  /// Multicluster layout. For SC use a single entry with all processors.
  std::vector<std::uint32_t> cluster_sizes = {32, 32, 32, 32};
  /// Relative per-cluster service rates; empty = homogeneous (the paper).
  /// A co-allocated job runs at the pace of its slowest cluster (extension
  /// toward the heterogeneous-grid setting the paper motivates).
  std::vector<double> cluster_speeds;
  WorkloadConfig workload;
  /// When set, arrivals replay this recorded trace instead of being drawn
  /// from `workload`'s synthetic distributions (whose size/service/arrival
  /// fields are then unused; the splitting parameters live in the trace
  /// config itself). Shared immutably: copies of this config across sweep
  /// points and runner threads all reference one loaded trace.
  std::shared_ptr<const TraceWorkloadConfig> trace_workload;
  /// The scheduler's composition (policy/pipeline.hpp); `policy` only seeds
  /// the display name and the SC layout checks. The default is canonical
  /// GS: set it to expand_policy(policy, ...) for any other policy.
  PipelineSpec pipeline;
  /// Test seam: when set, the engine builds its scheduler from this factory
  /// instead of `policy`/`pipeline` (the stage-equivalence tests inject
  /// reference copies of the historical policy classes).
  std::function<std::unique_ptr<Scheduler>(SchedulerContext&)> scheduler_factory;
  std::uint64_t seed = 1;
  /// Number of arrivals to generate; in backlog mode, completions to run.
  std::uint64_t total_jobs = 50000;
  /// Jobs in the system, queued or running, at all times (constant-backlog
  /// mode); 0 = open arrivals from the source. Synthetic workloads only.
  std::uint64_t backlog = 0;
  /// Fraction of completions discarded as warmup.
  double warmup_fraction = 0.1;
  /// A queue longer than this marks the run unstable and stops it early.
  std::size_t instability_queue_limit = 20000;
  /// The run is also unstable when, at the moment the last arrival enters,
  /// more than this fraction of all jobs is still queued — a queue that
  /// keeps growing to the end of the arrival stream has no steady state.
  double instability_backlog_fraction = 0.02;
  /// Batches for the response-time confidence interval.
  std::uint64_t batch_count = 20;

  [[nodiscard]] std::uint32_t total_processors() const;

  /// Check the config for internal consistency (cluster layout non-empty
  /// and non-degenerate, speeds aligned with sizes, fractions in range,
  /// positive run lengths and rates). Throws std::invalid_argument with a
  /// message naming the offending field; called by the engine constructor,
  /// so a bad config can never silently misbehave.
  void validate() const;
};

struct SimulationResult {
  std::string policy;
  bool unstable = false;

  std::uint64_t completed_jobs = 0;
  std::uint64_t measured_jobs = 0;  // post-warmup completions
  double end_time = 0.0;

  // Response times (seconds), post-warmup.
  RunningStats response_all;
  RunningStats response_local;   // jobs served from local queues (LS, LP)
  RunningStats response_global;  // jobs served from the global queue (GS, LP, SC)
  RunningStats wait_all;
  // Size-class breakdown (Sect. 3.2 discusses how the few very large jobs
  // dominate performance): small <= 16, medium 17..64, large > 64 CPUs.
  RunningStats response_small;
  RunningStats response_medium;
  RunningStats response_large;
  ConfidenceInterval response_ci;     // batch-means 95% CI on the mean
  double response_p95 = 0.0;
  /// Slowdown = response / gross service time, per job (>= 1).
  RunningStats slowdown_all;
  /// Time-averaged number of waiting jobs over the measurement window
  /// (Little: mean_queue_length ~= arrival_rate * mean wait).
  double mean_queue_length = 0.0;
  /// Time-averaged busy fraction per cluster (exposes the hot-cluster
  /// effect of unbalanced local queues, Sect. 3.1.2).
  std::vector<double> per_cluster_busy_fraction;

  // Utilization, post-warmup.
  double offered_gross_utilization = 0.0;  // from arrivals in the window
  double offered_net_utilization = 0.0;
  double busy_fraction = 0.0;  // time-averaged busy processors / P
  /// Net work of the jobs started in the window / (P * window). In backlog
  /// mode this is the maximal net utilization.
  double carried_net_utilization = 0.0;

  std::vector<std::size_t> final_queue_lengths;
  std::uint64_t events_executed = 0;
  /// Wall-clock seconds spent inside run() (provenance for the manifest;
  /// events_executed / wall_seconds is the engine's events-per-second).
  double wall_seconds = 0.0;

  [[nodiscard]] double mean_response() const { return response_all.mean(); }
};

/// Observer invoked as each job completes (after metrics are recorded);
/// lets callers export the realised schedule, e.g. as an SWF trace.
using JobObserver = std::function<void(const Job& job, double finish_time)>;

class MulticlusterSimulation final : public SchedulerContext {
 public:
  explicit MulticlusterSimulation(SimulationConfig config);

  /// Register an observer called at every job completion. Call before run().
  void set_job_observer(JobObserver observer) { observer_ = std::move(observer); }

  /// Attach a trace sink receiving every per-job lifecycle event (arrival,
  /// head-of-queue, placement attempt/reject, start, finish). Non-owning;
  /// call before run(). With no sink attached (the default) every emission
  /// site reduces to one null-pointer test — the zero-cost fast path
  /// benchmarked in BENCH_obs.json.
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

  /// Attach a metrics registry: the engine resolves its counters/series
  /// once here and fills events/sec, calendar occupancy (the pending-event
  /// count after each dispatched event), queue length,
  /// per-cluster utilization and placement-failure counts during run().
  /// Non-owning; call before run().
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Run to completion and return the metrics. Callable once.
  SimulationResult run();

  /// Make run() return after the current event (e.g. from a job
  /// observer); the result covers the jobs completed so far.
  void stop() { events_.stop(); }

  // SchedulerContext:
  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return events_.now(); }
  void start_job(JobPtr job) override;
  void record_placement(Job& job, bool success, std::int16_t cluster) override;

  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }

 private:
  void schedule_next_arrival();
  void submit_backlog_job();
  void on_arrival(JobPtr job);
  void on_departure(JobPtr job);
  void begin_measurement();
  void emit(obs::EventKind kind, const Job& job, double value, std::int16_t cluster);
  void finish_metrics();

  SimulationConfig config_;
  EventCore events_;
  Multicluster system_;
  /// Per-engine slab pool backing every Job this run touches. Jobs live
  /// from schedule-time of their arrival event to the end of on_departure,
  /// where they return to the pool for reuse by later arrivals — the hot
  /// loop never allocates per job after the pool warms up. Engine-local so
  /// parallel sweep runners stay bit-identical and share nothing.
  JobPool pool_;
  std::unique_ptr<JobSource> source_;
  std::unique_ptr<Scheduler> scheduler_;
  UtilizationTracker utilization_;
  TimeWeightedStat queue_length_;
  std::vector<TimeWeightedStat> cluster_busy_;
  JobObserver observer_;
  std::unique_ptr<BatchMeans> response_batches_;
  P2Quantile response_p95_{0.95};
  SimulationResult result_;

  // Observability (all optional, non-owning; null means detached).
  obs::TraceSink* sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Counter references resolved once at attach time (hot path bumps plain
  // integers, never touches the registry map).
  std::uint64_t* ctr_arrivals_ = nullptr;
  std::uint64_t* ctr_started_ = nullptr;
  std::uint64_t* ctr_finished_ = nullptr;
  std::uint64_t* ctr_attempts_ = nullptr;
  std::uint64_t* ctr_rejects_ = nullptr;
  std::uint64_t* ctr_rejects_local_ = nullptr;
  TimeWeightedStat* calendar_series_ = nullptr;

  /// Wall-clock seconds spent inside the event loop proper (events_.run()),
  /// excluding setup and result assembly; exported as the
  /// run.event_loop_seconds gauge (excluded from golden digests).
  double event_loop_seconds_ = 0.0;
  std::uint64_t arrivals_generated_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t warmup_completions_ = 0;
  bool measuring_ = false;
  double measure_start_time_ = 0.0;
  double last_arrival_time_ = 0.0;
  double arrived_gross_work_ = 0.0;  // post-warmup: sum size * gross_service
  double arrived_net_work_ = 0.0;
  bool ran_ = false;
};

/// Convenience: configure + run in one call.
SimulationResult run_simulation(const SimulationConfig& config);

}  // namespace mcsim
