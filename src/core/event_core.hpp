// The engine's event core: a clock, one slot for the pending arrival and a
// binary min-heap of departures — the two timed events the paper's model
// has. This is the CSIM18 substitute (DESIGN.md); process orientation is a
// convenience the model does not need, and nothing in the engine ever
// cancels an event.
//
// The engine keeps at most one arrival pending: it draws the next arrival
// only when the current one fires (and a constant-backlog run has none at
// all). So the arrival waits in its own slot, and the heap holds only
// departures — one per running job. A second pending arrival is refused.
//
// Events fire in (time, push order). Each event carries its push number in
// `seq`, so equal times fire first-pushed first — including an event pushed
// at the current time from inside a handler, which fires after every event
// already pending at that time. run() compares the slot with the heap's top
// by that same order, fires the earlier and hands it to the caller's
// dispatcher, which switches on the kind; there is no type-erased handler,
// no per-event allocation and no cancellation state.
//
// One EventCore drives one run; it is not thread-safe, and runs are made
// parallel by giving each its own engine (docs/ARCHITECTURE.md, "Threading
// model").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace mcsim {

struct Job;

/// One pending event: 24 bytes, ordered by (time, seq).
struct Event {
  enum class Kind : std::uint8_t { kArrival = 0, kDeparture = 1 };

  double time;
  std::uint64_t seq;  ///< push order << 1 | kind
  Job* job;

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(seq & 1u); }
};
static_assert(sizeof(Event) == 24, "an event is a time, a sequence word and a job");

class EventCore {
 public:
  /// Current simulation time (seconds): the time of the last event popped.
  [[nodiscard]] double now() const { return now_; }
  /// Events pushed and not yet popped: the pending arrival, if any, and
  /// the departures.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + (has_arrival_ ? 1u : 0u);
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Pre-size the heap for at most `capacity` simultaneous departures.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }

  /// Schedule `kind` for `job` at absolute time `time` (>= now; NaN is
  /// refused too). At most one arrival may be pending at a time.
  void push(double time, Event::Kind kind, Job* job) {
    MCSIM_REQUIRE(time >= now_, "cannot schedule an event in the past");
    if (kind == Event::Kind::kArrival) {
      MCSIM_REQUIRE(!has_arrival_, "an arrival is already pending");
      arrival_ = Event{time, (pushed_++ << 1) | static_cast<std::uint64_t>(kind), job};
      has_arrival_ = true;
      return;
    }
    const Event event{time, (pushed_++ << 1) | static_cast<std::uint64_t>(kind), job};
    // Sift up: move parents down into the hole until the event fits.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(event, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  /// Fire events one at a time, the earlier of the pending arrival and
  /// the first departure each time, advancing the clock to each and
  /// passing it to `dispatch`, until none is pending or a handler calls
  /// stop(). Events still pending after a stop fire when run() is called
  /// again.
  template <typename Dispatch>
  void run(Dispatch&& dispatch) {
    stop_ = false;
    while (!stop_) {
      const bool arrival_next =
          has_arrival_ && (heap_.empty() || before(arrival_, heap_.front()));
      if (!arrival_next && heap_.empty()) break;
      const Event event = arrival_next ? arrival_ : pop();
      if (arrival_next) has_arrival_ = false;
      now_ = event.time;
      ++executed_;
      dispatch(event);
    }
  }

  /// Make run() return after the current handler.
  void stop() { stop_ = true; }

 private:
  [[nodiscard]] static bool before(const Event& a, const Event& b) {
    // Both tests evaluated and combined without a branch: which of two
    // event times comes first is data, so a branch on it predicts badly.
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  Event pop() {
    const Event top = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) return top;
    // Sift down: move the earlier child up into the hole until `last` fits.
    std::size_t hole = 0;
    for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size) child += before(heap_[child + 1], heap_[child]) ? 1 : 0;
      if (!before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
    return top;
  }

  Event arrival_{};
  bool has_arrival_ = false;
  std::vector<Event> heap_;  ///< departures only
  std::uint64_t pushed_ = 0;
  std::uint64_t executed_ = 0;
  double now_ = 0.0;
  bool stop_ = false;
};

}  // namespace mcsim
