// Abstract arrival source: anything that can hand the engine the next
// JobSpec. Two implementations exist — the synthetic WorkloadGenerator
// (Poisson arrivals, DAS size/service draws) and TraceWorkload (replay of
// a recorded SWF log). The engine owns one JobSource and is agnostic to
// which; `next` is pull-based and returns false when the source is
// exhausted (a finite trace), which synthetic sources never are.
#pragma once

#include "workload/workload.hpp"

namespace mcsim {

class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Fill `out` with the next arrival (arrival times non-decreasing).
  /// Returns false when no jobs remain; `out` is untouched in that case.
  ///
  /// In-place contract: `out` is usually a recycled pooled job's spec, so
  /// an implementation overwrites *every* field of it — nothing of the
  /// previous occupant may leak through — and refills `components` and
  /// `ordered_clusters` in place (clear/assign/push_back), reusing their
  /// capacity instead of replacing the vectors. That keeps a warm run's
  /// arrivals off the heap (docs/PERFORMANCE.md, "Allocation-free job
  /// lifecycle"); tests/workload_job_source_test.cpp pins the contract for
  /// both sources.
  virtual bool next(JobSpec& out) = 0;
};

}  // namespace mcsim
