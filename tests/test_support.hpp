// Shared helpers for mcsim tests: a fake SchedulerContext that tracks
// started jobs on a real Multicluster, JobSpec/Job builders, and trace
// configs over records held in memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include <memory>

#include "core/job.hpp"
#include "exp/scenario_spec.hpp"
#include "policy/composed_scheduler.hpp"
#include "policy/pipeline.hpp"
#include "policy/scheduler.hpp"
#include "trace/record.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim::testing {

/// One load point of the paper's scenario (limit 16, balanced queues,
/// DAS-s-128) built through the spec construction path.
inline SimulationConfig paper_point(PolicyKind policy, double utilization,
                                    std::uint64_t jobs, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.sim_jobs = jobs;
  spec.seed = seed;
  return exp::to_simulation_config(spec, utilization);
}

/// A trace config replaying `records` from memory: a VectorRecordSource
/// per engine, in the vector's order, through a lookahead window of
/// `window` records (1 passes pre-sorted records straight through).
inline std::shared_ptr<TraceWorkloadConfig> in_memory_trace(
    std::vector<TraceRecord> records,
    std::uint32_t window = TraceWorkloadConfig::kDefaultLookaheadWindow) {
  auto shared = std::make_shared<const std::vector<TraceRecord>>(std::move(records));
  TraceStreamSummary summary;
  for (const TraceRecord& record : *shared) summary.add(record);
  auto config = std::make_shared<TraceWorkloadConfig>();
  config->open_source = [shared] { return std::make_unique<VectorRecordSource>(shared); };
  config->usable_records = summary.usable_records;
  config->lookahead_window = window;
  return config;
}

/// SchedulerContext stand-in: applies allocations to a real Multicluster
/// and records the start order, so policy tests can drive the protocol
/// manually (submit jobs, complete them, inspect what started when).
class FakeContext : public SchedulerContext {
 public:
  explicit FakeContext(std::vector<std::uint32_t> cluster_sizes)
      : system_(cluster_sizes) {}

  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return clock; }

  void start_job(JobPtr job) override {
    job->start_time = clock;
    system_.allocate(job->allocation);
    started.push_back(job);
  }

  /// Complete a started job: release its processors and notify the policy.
  void finish(const JobPtr& job, Scheduler& scheduler) {
    release(job);
    scheduler.on_departure();
  }

  /// The first half of finish(): the job leaves the machine, but the policy
  /// has not been told yet (where the engine submits a constant-backlog
  /// refill).
  void release(const JobPtr& job) {
    clock = std::max(clock, job->start_time + job->spec.gross_service_time);
    system_.release(job->allocation);
  }

  std::vector<JobPtr> started;
  double clock = 0.0;

 private:
  Multicluster system_;
};

/// A job with explicit components (non-increasing) and an origin queue.
/// Jobs live in a per-process arena (a deque never invalidates element
/// addresses) so tests can hold plain JobPtr handles, mirroring how the
/// engine's JobPool hands out stable pointers.
inline JobPtr make_job(std::uint64_t id, std::vector<std::uint32_t> components,
                       std::uint32_t origin_queue = 0, double service = 100.0) {
  JobSpec spec;
  spec.id = id;
  spec.arrival_time = 0.0;
  spec.components = std::move(components);
  spec.total_size = 0;
  for (std::uint32_t c : spec.components) spec.total_size += c;
  spec.service_time = service;
  spec.wide_area = spec.components.size() > 1;
  spec.gross_service_time = spec.wide_area ? service * 1.25 : service;
  spec.origin_queue = origin_queue;
  static std::deque<Job> arena;
  Job& job = arena.emplace_back();
  job.spec = std::move(spec);
  return &job;
}

/// A paper policy as its canonical pipeline composition — the successor to
/// constructing the historical PolicyGs/PolicyLs/PolicyLp classes directly.
/// Returns the concrete type so tests can reach diagnostics like
/// global_queue_length().
inline std::unique_ptr<ComposedScheduler> make_policy(
    PolicyKind kind, SchedulerContext& context,
    PlacementRule placement = PlacementRule::kWorstFit,
    BackfillMode backfill = BackfillMode::kNone,
    QueueDiscipline discipline = QueueDiscipline::kFcfs) {
  const PipelineSpec pipeline = expand_policy(kind, placement, backfill, discipline);
  return std::make_unique<ComposedScheduler>(context, pipeline,
                                             scheduler_display_name(kind, pipeline));
}

}  // namespace mcsim::testing
