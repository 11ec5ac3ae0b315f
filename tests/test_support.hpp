// Shared helpers for mcsim tests: a fake SchedulerContext that tracks
// started jobs on a real Multicluster, and JobSpec/Job builders.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include <memory>

#include "core/job.hpp"
#include "policy/composed_scheduler.hpp"
#include "policy/pipeline.hpp"
#include "policy/scheduler.hpp"

namespace mcsim::testing {

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
    clock = std::max(clock, job->start_time + job->spec.gross_service_time);
    system_.release(job->allocation);
    scheduler.on_departure();
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
