#include "policy/reservation.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mcsim {

namespace {
/// Upper-bound predicate: a time sorts before a ledger entry ending later.
bool ends_after(double time, const ReservationTracker::RunningJob& job) {
  return time < job.end_time;
}
}  // namespace

void ReservationTracker::on_start(double end_time, std::uint32_t processors) {
  running_.insert(std::upper_bound(running_.begin(), running_.end(), end_time, ends_after),
                  RunningJob{end_time, processors});
  processors_ += processors;
}

void ReservationTracker::prune(double now) {
  const auto end = std::upper_bound(running_.begin(), running_.end(), now, ends_after);
  for (auto it = running_.begin(); it != end; ++it) processors_ -= it->processors;
  running_.erase(running_.begin(), end);
}

std::pair<double, std::uint32_t> ReservationTracker::head_reservation(
    std::uint32_t idle, std::uint32_t needed) const {
  MCSIM_ASSERT(idle < needed || !running_.empty());
  // Accumulate returning processors in end-time order until the head fits.
  // Every job ending at that instant frees its processors then, so the
  // whole tie group counts towards the spare: the result does not depend
  // on the order equal end times were recorded in.
  for (std::size_t i = 0; i < running_.size(); ++i) {
    idle += running_[i].processors;
    if (idle >= needed) {
      const double t_res = running_[i].end_time;
      while (++i < running_.size() && running_[i].end_time == t_res) {
        idle += running_[i].processors;
      }
      return {t_res, idle - needed};
    }
  }
  // A head larger than the machine cannot happen (the workload is bounded),
  // but guard against it so the scheduler degrades to plain FCFS.
  return {std::numeric_limits<double>::infinity(), 0};
}

void AvailabilityProfile::reset(double now, std::uint32_t idle,
                                const ReservationTracker& ledger) {
  points_.clear();
  points_.emplace_back(now, idle);
  // The ledger is sorted by end time, so jobs already completed (the
  // departure releasing them is being processed) come first and join the
  // free count at `now`; every later end time opens one breakpoint, with
  // equal end times summed into it whatever order they were recorded in.
  for (const ReservationTracker::RunningJob& job : ledger.running()) {
    if (job.end_time <= now) {
      points_.front().second += job.processors;
    } else if (points_.back().first == job.end_time) {
      points_.back().second += job.processors;
    } else {
      points_.emplace_back(job.end_time, points_.back().second + job.processors);
    }
  }
}

double AvailabilityProfile::earliest_fit(std::uint32_t size, double duration) const {
  // Free counts only change at breakpoints, so the earliest feasible start
  // is at one. A candidate i blocked at breakpoint j rules out every
  // candidate in (i, j] as well: each starts no later than j and its window
  // ends no earlier than i's, so j lies inside it. The scan resumes past j
  // and visits each breakpoint once. The profile ends at full capacity
  // (every running job and reservation expires), so any job that fits the
  // machine finds a slot.
  const std::size_t n = points_.size();
  std::size_t i = 0;
  while (i < n) {
    if (points_[i].second < size) {
      ++i;
      continue;
    }
    const double end = points_[i].first + duration;
    std::size_t j = i + 1;
    while (j < n && points_[j].first < end && points_[j].second >= size) ++j;
    if (j == n || points_[j].first >= end) return points_[i].first;
    i = j + 1;
  }
  return std::numeric_limits<double>::infinity();
}

void AvailabilityProfile::reserve(double start, double duration, std::uint32_t size) {
  MCSIM_ASSERT(!points_.empty());
  using Point = std::pair<double, std::uint32_t>;
  // Index of the first breakpoint at or after `time`, after opening one at
  // `time` (carrying the free count of the step it splits) unless it exists
  // or `time` precedes the profile.
  const auto split_at = [this](double time) {
    auto it = std::lower_bound(points_.begin(), points_.end(), time,
                               [](const Point& p, double t) { return p.first < t; });
    if (it != points_.begin() && (it == points_.end() || it->first != time)) {
      it = points_.insert(it, Point{time, std::prev(it)->second});
    }
    return static_cast<std::size_t>(it - points_.begin());
  };
  const std::size_t first = split_at(start);
  const std::size_t last = split_at(start + duration);
  for (std::size_t k = first; k < last; ++k) {
    std::uint32_t& free = points_[k].second;
    free = free >= size ? free - size : 0;
  }
}

}  // namespace mcsim
