// FCFS job queue with the enable/disable state of the paper's scheduling
// protocol (Sect. 2.5): a queue whose head job does not fit is disabled
// until the next departure from the system.
//
// The queue is a power-of-two ring of trivially-copyable JobPtr handles
// (core/job.hpp). It grows by doubling and never shrinks, so once it has
// held its run's longest queue, push/pop/remove_at and the priority-insert
// comparator path move plain pointers and never touch an allocator or a
// refcount (tests/core_queue_test.cpp pins this with a global-allocation
// probe). A middle insert or removal shifts the shorter side.
#pragma once

#include <cstdint>
#include <vector>

#include "core/job.hpp"

namespace mcsim {

/// Queue ordering predicate: `a` before `b` means `a` is served first.
/// Insertion is stable (FCFS among equals). A plain function pointer over
/// the concrete Job — no type-erased callable on the insert path.
using JobOrder = bool (*)(const Job& a, const Job& b);

class JobQueue {
 public:
  /// Set a non-FCFS service order (extension; the paper is FCFS-only).
  /// Must be called while the queue is empty.
  void set_order(JobOrder order);

  void push(JobPtr job);
  [[nodiscard]] JobPtr front() const;
  JobPtr pop();

  /// Random access for the backfilling schedulers (index 0 is the head).
  [[nodiscard]] JobPtr at(std::size_t index) const;
  /// Remove and return the job at `index` (backfill start out of order).
  JobPtr remove_at(std::size_t index);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }

  /// Total jobs ever enqueued (for sanity checks).
  [[nodiscard]] std::uint64_t total_enqueued() const { return total_enqueued_; }

 private:
  /// The job `index` places behind the head.
  [[nodiscard]] JobPtr& slot(std::size_t index) {
    return ring_[(head_ + index) & (ring_.size() - 1)];
  }
  [[nodiscard]] JobPtr slot(std::size_t index) const {
    return ring_[(head_ + index) & (ring_.size() - 1)];
  }
  /// Double the ring (first use: 16 slots), unwrapping it to head 0.
  void grow();

  std::vector<JobPtr> ring_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  JobOrder order_ = nullptr;  // null = FCFS
  bool enabled_ = true;
  std::uint64_t total_enqueued_ = 0;
};

}  // namespace mcsim
