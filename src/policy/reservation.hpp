// Reservation bookkeeping for the backfilling stages (docs/SCHEDULING.md).
//
// ReservationTracker is the running-job ledger the EASY/aggressive/
// conservative stages share: which started jobs occupy how many processors
// until when. It was lifted out of the historical PolicyGS so every
// backfilling composition reuses one implementation. Service times are
// known exactly in the model ("perfect estimates"), so end times are exact;
// the counts are aggregate — actual starts still go through real
// per-cluster placement.
//
// AvailabilityProfile is the conservative stage's working state: a
// piecewise-constant free-processor profile over future time, built from
// the tracker and carved down by one reservation per queued job.
//
// The ledger is kept sorted by end time, so no kernel sorts or copies it,
// and every kernel is linear in the ledger or profile length. Once their
// vectors have grown to a run's peak population, neither class allocates.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mcsim {

class ReservationTracker {
 public:
  struct RunningJob {
    double end_time;
    std::uint32_t processors;
  };

  /// Record a started job occupying `processors` until `end_time`. It is
  /// filed after every job ending no later, keeping the ledger sorted.
  void on_start(double end_time, std::uint32_t processors);

  /// Drop jobs that have completed by `now` (called at departures).
  void prune(double now);

  [[nodiscard]] bool empty() const { return running_.empty(); }
  /// Processors the recorded jobs occupy in total.
  [[nodiscard]] std::uint64_t processors() const { return processors_; }
  /// The running jobs, sorted by end time (start order among equal ends).
  [[nodiscard]] const std::vector<RunningJob>& running() const { return running_; }

  /// EASY head reservation: the earliest completion time at which at least
  /// `needed` processors are free given `idle` free now, and the processors
  /// spare at that moment, counting every job that ends then. {infinity, 0}
  /// when the ledger can never free enough (the scheduler then degrades to
  /// plain FCFS).
  [[nodiscard]] std::pair<double, std::uint32_t> head_reservation(
      std::uint32_t idle, std::uint32_t needed) const;

 private:
  std::vector<RunningJob> running_;
  std::uint64_t processors_ = 0;
};

class AvailabilityProfile {
 public:
  /// Rebuild the profile: `idle` processors free at `now`, plus each
  /// running job's processors returning at its end time.
  void reset(double now, std::uint32_t idle, const ReservationTracker& ledger);

  /// Earliest time t >= now with at least `size` processors free over the
  /// whole window [t, t + duration). Infinity when `size` never fits (a job
  /// wider than the machine).
  [[nodiscard]] double earliest_fit(std::uint32_t size, double duration) const;

  /// Subtract `size` processors over [start, start + duration) — the
  /// reservation held for one queued job.
  void reserve(double start, double duration, std::uint32_t size);

  /// Processors free at the profile's first breakpoint (`now` at reset).
  /// Reservations only subtract, so within a round this never rises.
  [[nodiscard]] std::uint32_t free_now() const { return points_.front().second; }

  /// The profile's breakpoints (time, processors free from then on), for
  /// tests.
  [[nodiscard]] const std::vector<std::pair<double, std::uint32_t>>& points() const {
    return points_;
  }

 private:
  /// Breakpoints sorted by time; free counts are constant between them.
  std::vector<std::pair<double, std::uint32_t>> points_;
};

}  // namespace mcsim
