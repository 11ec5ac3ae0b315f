// The engine's event core: a clock and a binary min-heap of the two timed
// events the paper's model has, a job's arrival and its departure. This is
// the CSIM18 substitute (DESIGN.md); process orientation is a convenience
// the model does not need, and nothing in the engine ever cancels an event.
//
// Events fire in (time, push order). Each entry carries its push number in
// `seq`, so equal times fire first-pushed first — including an event pushed
// at the current time from inside a handler, which fires after every event
// already pending at that time. run() pops one entry at a time and hands it
// to the caller's dispatcher, which switches on the kind; there is no
// type-erased handler, no per-event allocation and no cancellation state.
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
  /// Events pushed and not yet popped.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Pre-size the heap for at most `capacity` simultaneous events.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }

  /// Schedule `kind` for `job` at absolute time `time` (>= now; NaN is
  /// refused too).
  void push(double time, Event::Kind kind, Job* job) {
    MCSIM_REQUIRE(time >= now_, "cannot schedule an event in the past");
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

  /// Pop events one at a time, advancing the clock to each and passing it
  /// to `dispatch`, until none is pending or a handler calls stop(). Events
  /// still pending after a stop fire when run() is called again.
  template <typename Dispatch>
  void run(Dispatch&& dispatch) {
    stop_ = false;
    while (!stop_ && !heap_.empty()) {
      const Event event = pop();
      now_ = event.time;
      ++executed_;
      dispatch(event);
    }
  }

  /// Make run() return after the current handler.
  void stop() { stop_ = true; }

 private:
  [[nodiscard]] static bool before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
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
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
    return top;
  }

  std::vector<Event> heap_;
  std::uint64_t pushed_ = 0;
  std::uint64_t executed_ = 0;
  double now_ = 0.0;
  bool stop_ = false;
};

}  // namespace mcsim
