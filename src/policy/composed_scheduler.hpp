// ComposedScheduler — one scheduler for every point of the pipeline space
// (docs/SCHEDULING.md).
//
// The queue structure selects the scheduling protocol; within it the
// composed stages decide service order (QueueDiscipline via JobQueue's
// priority insert), backfilling (ReservationTracker / AvailabilityProfile),
// placement (the Scheduler base's configured rule) and the co-allocation
// rule (which placement primitive a job may use).
//
// For the canonical compositions expand_policy() produces, the three
// protocols reproduce the historical PolicyGs / PolicyLs / PolicyLp
// implementations call-for-call — every try_place / try_place_local
// sequence, rotation order and disable/enable decision is identical, which
// is what keeps the 18 sealed goldens bit-exact
// (tests/policy_equivalence_test.cpp pins this against reference copies of
// the legacy classes).
//
//   kSingleGlobal    GS/SC (paper Sect. 2.5, policies 1 and 4): one queue;
//                    head jobs start while they fit; optional backfilling.
//   kPerCluster      LS (policy 2): per-cluster queues, rotating visits,
//                    at most one start per queue per round; a queue whose
//                    head does not fit is disabled until the next departure
//                    and re-enabled in disable order.
//   kLocalPlusGlobal LP (policy 3): single-component jobs queue locally,
//                    wide jobs globally; the global queue is visited first
//                    but only while some local queue is empty.
#pragma once

#include <string>
#include <vector>

#include "policy/pipeline.hpp"
#include "policy/queue.hpp"
#include "policy/reservation.hpp"
#include "policy/scheduler.hpp"

namespace mcsim {

class ComposedScheduler final : public Scheduler {
 public:
  ComposedScheduler(SchedulerContext& context, PipelineSpec pipeline,
                    std::string display_name);

  void submit(JobPtr job) override;
  void on_departure() override;
  [[nodiscard]] std::size_t queued_jobs() const override;
  [[nodiscard]] std::size_t max_queue_length() const override;
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override;
  [[nodiscard]] std::string name() const override { return display_name_; }

  [[nodiscard]] const PipelineSpec& pipeline() const { return pipeline_; }
  [[nodiscard]] BackfillMode backfill_mode() const { return pipeline_.backfill; }
  /// Global-queue length (kLocalPlusGlobal diagnostics).
  [[nodiscard]] std::size_t global_queue_length() const { return global_.size(); }

 private:
  /// The co-allocation rule's placement decision for one job, written into
  /// job.allocation (cleared on a reject); true when the job fits.
  /// `local_cluster` is the cluster of the queue the job waits in, or -1
  /// for the global/single queue (the job's origin cluster then stands in
  /// when the rule restricts single-component jobs).
  [[nodiscard]] bool place_for(Job& job, std::int32_t local_cluster);

  // kSingleGlobal protocol (historical PolicyGs).
  void try_schedule_single();
  /// Start the global-queue job at `index` on the allocation place_for
  /// just wrote.
  void start_at(std::size_t index);
  void backfill_aggressive();
  void backfill_easy();
  void backfill_conservative();

  // kPerCluster protocol (historical PolicyLs).
  void try_schedule_rotation();
  void disable_queue(std::uint32_t qid);

  // kLocalPlusGlobal protocol (historical PolicyLp).
  void try_schedule_priority();
  [[nodiscard]] bool some_local_empty() const;

  PipelineSpec pipeline_;
  std::string display_name_;

  /// The single/global queue (kSingleGlobal; the wide-job queue for
  /// kLocalPlusGlobal). Unused for kPerCluster.
  JobQueue global_;
  /// Per-cluster queues (kPerCluster, kLocalPlusGlobal).
  std::vector<JobQueue> locals_;
  /// kPerCluster rotation state: visiting order of the enabled queues
  /// (re-enable order is preserved across departures, as the paper
  /// specifies) and the queues disabled since the last departure.
  std::vector<std::uint32_t> visit_order_;
  std::vector<std::uint32_t> disabled_order_;
  /// One round's snapshot of visit_order_, reused across rounds so the
  /// rotation never allocates (see try_schedule_rotation).
  std::vector<std::uint32_t> round_;

  /// Backfilling state (kSingleGlobal with backfill only).
  ReservationTracker running_;
  AvailabilityProfile profile_;
};

}  // namespace mcsim
