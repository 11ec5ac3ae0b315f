// Runtime job state: the immutable JobSpec plus what the scheduler decides
// (allocation, start time) and a tag recording which queue class served it
// (for the per-queue response-time breakdown of Fig. 4).
//
// Jobs are owned by the engine's JobPool (core/job_pool.hpp) for their
// whole lifecycle; everything else — queues, policies, the scheduler
// context — handles them through the stable raw pointer JobPtr. The
// pointer is the handle: it is never reference-counted (a job cannot
// outlive its engine) and never compared for ordering (pool recycling
// makes addresses non-deterministic across runs; all orderings use spec
// fields or queue position).
#pragma once

#include "cluster/multicluster.hpp"
#include "workload/workload.hpp"

namespace mcsim {

enum class QueueClass : std::uint8_t { kLocal, kGlobal };

struct Job {
  Job() = default;
  // Pool-owned: handles are Job*; copying one would silently fork state.
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Filled in place by the job source (JobSource::next) on every arrival.
  JobSpec spec;
  /// Written by each placement attempt (cleared on a reject); the start
  /// applies whatever the successful attempt left here.
  Allocation allocation;
  double start_time = -1.0;  // < 0 while queued
  QueueClass queue_class = QueueClass::kGlobal;
  /// Observability: set once the scheduler first considered the job for
  /// placement (the trace layer's head-of-queue event fires then).
  bool considered = false;

  [[nodiscard]] bool started() const { return start_time >= 0.0; }

  /// Re-initialise a recycled pool slot's run state for a new arrival.
  /// Leaves `spec` for the job source to overwrite and keeps every vector's
  /// capacity, so a recycled job is filled and placed without touching the
  /// allocator.
  void reset() {
    allocation.clear();
    start_time = -1.0;
    queue_class = QueueClass::kGlobal;
    considered = false;
  }
};

/// Stable handle to a pool-owned job. Trivially copyable: queue hops, the
/// JobOrder comparator path and pop()/remove_at() moves never touch an
/// allocator or a refcount.
using JobPtr = Job*;

}  // namespace mcsim
