#include "sim/simulator.hpp"

#include <utility>

#include "util/assert.hpp"

namespace mcsim {

std::size_t Simulator::pending_events() const {
  return calendar_.size() + batch_live_;
}

std::uint32_t Simulator::alloc_slot() {
  if (free_slots_.empty()) calendar_.drain_reclaimed_slots(free_slots_);
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId Simulator::schedule_at(double when, EventHandler handler) {
  MCSIM_REQUIRE(when >= now_, "cannot schedule an event in the past");
  MCSIM_REQUIRE(handler != nullptr, "event handler must be callable");
  const std::uint32_t slot = alloc_slot();
  slots_[slot] = std::move(handler);
  return calendar_.push(when, slot);
}

EventId Simulator::schedule_in(double delay, EventHandler handler) {
  MCSIM_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  // The common case: the event is still buried in the calendar. Its slot
  // comes back through drain_reclaimed_slots when the dead entry surfaces;
  // the handler is destroyed when the slot is next reused (see the lazy-
  // destruction contract in simulator.hpp).
  if (calendar_.cancel(id)) return true;
  if (id == kNoEvent) return false;  // dead batch entries carry kNoEvent
  // Otherwise it may be an undispatched mate of the current batch,
  // cancelled from within an earlier same-timestamp handler.
  for (std::size_t i = batch_next_; i < batch_.size(); ++i) {
    if (batch_[i].id == id) {
      free_slots_.push_back(batch_[i].slot);
      batch_[i].id = kNoEvent;
      MCSIM_ASSERT(batch_live_ > 0);
      --batch_live_;
      return true;
    }
  }
  return false;
}

bool Simulator::drain_batch_one() {
  while (batch_next_ < batch_.size()) {
    const Calendar::Entry entry = batch_[batch_next_++];
    if (entry.id == kNoEvent) continue;  // cancelled batch mate
    MCSIM_ASSERT(batch_live_ > 0);
    --batch_live_;
    dispatch(entry);
    return true;
  }
  return false;
}

void Simulator::start_batch() {
  batch_next_ = 0;
  calendar_.pop_ties(batch_);
  batch_live_ = batch_.size();
}

bool Simulator::step() {
  if (drain_batch_one()) return true;
  if (calendar_.empty()) return false;
  start_batch();
  drain_batch_one();
  return true;
}

void Simulator::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

void Simulator::run_until(double until) {
  MCSIM_REQUIRE(until >= now_, "cannot run backwards");
  stop_requested_ = false;
  while (!stop_requested_) {
    // A batch remnant (from a stop() mid-batch) is at a timestamp already
    // accepted into the run, which is <= until by the precondition above.
    if (drain_batch_one()) continue;
    if (calendar_.empty() || calendar_.next_time() > until) break;
    start_batch();
    drain_batch_one();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

void Simulator::reset() {
  calendar_.clear();
  slots_.clear();
  free_slots_.clear();
  batch_.clear();
  batch_next_ = 0;
  batch_live_ = 0;
  now_ = 0.0;
  stop_requested_ = false;
  executed_ = 0;
  events_since_hook_ = 0;
}

void Simulator::reserve_events(std::size_t expected_total, std::size_t expected_pending) {
  calendar_.reserve(expected_total, expected_pending);
  slots_.reserve(expected_pending);
  free_slots_.reserve(expected_pending);
}

void Simulator::set_step_hook(StepHook hook, std::uint64_t stride) {
  MCSIM_REQUIRE(stride >= 1, "step-hook stride must be at least 1");
  step_hook_ = std::move(hook);
  hook_stride_ = stride;
  events_since_hook_ = 0;
}

void Simulator::dispatch(const Calendar::Entry& entry) {
  MCSIM_ASSERT(entry.time >= now_);
  now_ = entry.time;
  // Move the handler out of its slot (freed for reuse) so it may
  // schedule/cancel freely while running.
  EventFn handler = std::move(slots_[entry.slot]);
  free_slots_.push_back(entry.slot);
  ++executed_;
  handler();
  if (step_hook_ && ++events_since_hook_ >= hook_stride_) {
    events_since_hook_ = 0;
    step_hook_(now_, pending_events());
  }
}

}  // namespace mcsim
