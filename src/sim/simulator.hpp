/// \file
/// \brief The discrete-event simulator: clock + calendar + handler dispatch.
///
/// This is the CSIM18 substitute (see DESIGN.md). The paper's model needs
/// only timed events (arrivals, departures) and deterministic tie-breaking;
/// process-orientation in CSIM is a convenience we do not require.
///
/// Usage:
/// \code
///   Simulator sim;
///   sim.schedule_in(1.5, [&]{ ... });
///   sim.run();                       // until calendar empty or stop()
/// \endcode
///
/// Hot-path layout (docs/PERFORMANCE.md): handlers live in a slot vector
/// indexed by the 32-bit slot carried in each calendar entry — scheduling
/// is a free-list pop plus a heap push, dispatch is one vector read; there
/// is no per-event associative container. Events sharing the earliest
/// timestamp are drained from the calendar as one batch (pop_ties) and
/// dispatched one by one in push order, preserving the exact pre-batching
/// semantics: the same handler order, the same pending-event counts as
/// observed by the step hook, and cancellation of a not-yet-dispatched
/// batch mate from within an earlier handler still suppresses it.
///
/// Contract note: the callable of a *cancelled* event is destroyed lazily —
/// when its slot is recycled or the simulator resets — not at cancel().
/// Handlers must not rely on captured destructors running at cancel time
/// (none in this codebase do; handlers capture plain pointers and values).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/event.hpp"

namespace mcsim {

/// Observability hook invoked after dispatched events with the advanced
/// clock and the number of still-pending events (calendar occupancy).
using StepHook = std::function<void(double now, std::size_t pending)>;

/// The event-driven simulation core: a clock, a cancellable calendar and
/// handler dispatch. One Simulator drives one run; it is not thread-safe
/// and runs are made parallel by giving each its own Simulator
/// (docs/ARCHITECTURE.md, "Threading model").
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  [[nodiscard]] double now() const { return now_; }

  /// Schedule `handler` at absolute time `when` (>= now). Returns the event id.
  EventId schedule_at(double when, EventHandler handler);

  /// Schedule `handler` after `delay` (>= 0).
  EventId schedule_in(double delay, EventHandler handler);

  /// Cancel a pending event; returns false if it already fired or was cancelled.
  bool cancel(EventId id);

  /// Execute the next event; returns false if nothing is pending.
  bool step();

  /// Run until the calendar drains or stop() is called.
  void run();

  /// Run until the clock would pass `until`; events at exactly `until` fire.
  void run_until(double until);

  /// Request the current run()/run_until() loop to return after the current
  /// handler. Safe to call from inside a handler; events already drained
  /// into the current same-timestamp batch stay pending and fire when the
  /// loop is re-entered.
  void stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Drop all pending events and reset the clock to zero.
  void reset();

  /// Pre-size the calendar and handler-slot storage from the run's known
  /// event horizon: `expected_total` events over the whole run, at most
  /// `expected_pending` pending at once. Purely an allocation hint.
  void reserve_events(std::size_t expected_total, std::size_t expected_pending);

  /// Attach an observability hook called every `stride`-th dispatched
  /// event (stride >= 1), e.g. to sample calendar occupancy into a
  /// time-weighted series. Pass a null hook to detach. With no hook
  /// attached the dispatch path pays a single predictable branch — the
  /// null-sink fast path the observability layer is benchmarked against
  /// (BENCH_obs.json).
  void set_step_hook(StepHook hook, std::uint64_t stride = 1);

 private:
  void dispatch(const Calendar::Entry& entry);
  /// Dispatch the next live entry of the current batch, if any.
  bool drain_batch_one();
  /// Refill the batch with every event at the calendar's earliest time.
  void start_batch();
  [[nodiscard]] std::uint32_t alloc_slot();

  Calendar calendar_;
  /// Handler storage indexed by Calendar::Entry::slot; free_slots_ is the
  /// recycling free list.
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// The same-timestamp batch currently being drained: entries
  /// [batch_next_, batch_.size()) are still pending; dead ones (cancelled
  /// from within a batch mate's handler) carry id == kNoEvent.
  std::vector<Calendar::Entry> batch_;
  std::size_t batch_next_ = 0;
  std::size_t batch_live_ = 0;  // live undispatched entries in batch_
  StepHook step_hook_;
  std::uint64_t hook_stride_ = 1;
  std::uint64_t events_since_hook_ = 0;
  double now_ = 0.0;
  bool stop_requested_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace mcsim
