// Scheduler interface (paper Sect. 2.5).
//
// A Scheduler owns the queue structure of one policy. The engine feeds it
// arrivals via submit() and notifies it of departures via on_departure();
// the scheduler starts jobs through its SchedulerContext, which performs the
// allocation and schedules the departure event. The paper's policies use
// FCFS within each queue; the pipeline's queue stage may reorder
// (QueueDiscipline).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/multicluster.hpp"
#include "cluster/placement.hpp"
#include "core/job.hpp"
#include "policy/queue.hpp"

namespace mcsim {

/// Backfilling stage for the single-global-queue structure (GS, SC) — an
/// extension beyond the paper, which uses plain FCFS. LS's rotation already
/// gives a C-wide backfilling window (Sect. 3.1.1); these modes give the
/// single queue one too.
enum class BackfillMode : std::uint8_t {
  kNone,         // paper: strict FCFS, head-of-line blocking
  kAggressive,   // start any queued job that fits (no reservation; may starve)
  kEasy,         // EASY: backfill only if the head job's reservation holds
  kConservative  // every queued job holds a reservation no backfill may delay
};

const char* backfill_mode_name(BackfillMode mode);
/// Parse a backfill-mode name ("none"/"fcfs", "aggressive[-bf]",
/// "easy[-bf]", "conservative[-bf]"; case-insensitive). Throws
/// std::invalid_argument otherwise.
BackfillMode parse_backfill_mode(const std::string& name);

/// Service order within the global queue (extension; the paper is FCFS).
enum class QueueDiscipline : std::uint8_t {
  kFcfs,              // arrival order (the paper)
  kShortestJobFirst,  // by gross service time (classic response-time winner)
  kLongestJobFirst,   // by gross service time, reversed
  kSmallestFirst,     // by total processor count (easy fits first)
  kLargestFirst       // by total processor count, reversed
};

const char* queue_discipline_name(QueueDiscipline discipline);
/// Parse a queue-discipline name ("fcfs", "sjf", "ljf", "smallest-first",
/// "largest-first"; case-insensitive). Throws std::invalid_argument
/// otherwise.
QueueDiscipline parse_queue_discipline(const std::string& name);

/// The JobQueue ordering for a discipline (nullptr for FCFS). A plain
/// function pointer: comparator calls on the priority-insert path are a
/// direct indirect call, never a std::function dispatch.
JobOrder make_job_order(QueueDiscipline discipline);

/// The slice of the engine a policy is allowed to see: global knowledge of
/// idle processors, and the ability to start a job on an allocation.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  [[nodiscard]] virtual const Multicluster& system() const = 0;
  /// Current simulation time (the backfilling variants reason about job
  /// completion times).
  [[nodiscard]] virtual double now() const = 0;
  /// Start `job` now on job->allocation, which the successful placement
  /// attempt just wrote; the engine allocates the processors and schedules
  /// the departure.
  virtual void start_job(JobPtr job) = 0;
  /// Observability: every placement attempt reports its outcome here
  /// (called by Scheduler::try_place / try_place_local). `cluster` is the
  /// local cluster the attempt was restricted to, or -1 for a system-wide
  /// attempt. The default ignores it; the engine forwards it to an
  /// attached trace sink and metrics registry.
  virtual void record_placement(Job& /*job*/, bool /*success*/,
                                std::int16_t /*cluster*/) {}
};

class Scheduler {
 public:
  Scheduler(SchedulerContext& context, PlacementRule placement)
      : context_(context), placement_(placement) {}
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// A job arrived (already tagged with its submission queue).
  virtual void submit(JobPtr job) = 0;

  /// A job departed: re-enable queues per the policy's protocol and try to
  /// start queued jobs.
  virtual void on_departure() = 0;

  /// Jobs currently waiting in all queues.
  [[nodiscard]] virtual std::size_t queued_jobs() const = 0;

  /// Length of the longest single queue (instability detection).
  [[nodiscard]] virtual std::size_t max_queue_length() const = 0;

  /// Per-queue lengths, for diagnostics.
  [[nodiscard]] virtual std::vector<std::size_t> queue_lengths() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  // Placement attempts. Each writes its decision into job.allocation —
  // cleared on a reject — and returns whether the job fits, so a recycled
  // job places into the allocation buffer it already owns.

  /// WF (or the configured rule) placement of an unordered request over the
  /// whole system; single-component jobs are a 1-tuple.
  [[nodiscard]] bool try_place(Job& job) const;

  /// Placement of a single-component job restricted to its local cluster.
  [[nodiscard]] bool try_place_local(Job& job, ClusterId cluster) const;

  /// Placement of the job's full size on one cluster (the most idle that
  /// fits, ties toward the lower id) — the component-limit co-allocation
  /// rule's fallback for jobs it refuses to spread.
  [[nodiscard]] bool try_place_whole(Job& job) const;

  SchedulerContext& context_;
  PlacementRule placement_;

 private:
  /// Cluster capacities, cached on first use (the system's layout is fixed
  /// for a run); the load-aware placement rule orders by idle fraction.
  [[nodiscard]] const std::vector<std::uint32_t>& capacities() const;

  /// Per-scheduler working memory for try_place: the placement sort/mark
  /// buffers. Mutable because a placement *attempt* is logically const —
  /// it observes the system and decides — while physically reusing these
  /// buffers keeps the attempt (and in particular every reject) off the
  /// allocator.
  mutable std::vector<std::uint32_t> capacity_cache_;
  mutable PlacementScratch place_scratch_;
};

}  // namespace mcsim
