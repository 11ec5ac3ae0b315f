// TraceEvent layout, the RingRecorder flight recorder, emitters, and the
// binary dump format.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/event.hpp"
#include "obs/ring_recorder.hpp"

namespace mcsim::obs {
namespace {

TraceEvent make_event(std::uint64_t job, EventKind kind, double time) {
  TraceEvent event;
  event.time = time;
  event.value = time * 2.0;
  event.job = job;
  event.size = 16;
  event.kind = kind;
  event.components = 4;
  event.cluster = 2;
  return event;
}

TEST(TraceEvent, IsCompactAndTriviallyCopyable) {
  EXPECT_EQ(sizeof(TraceEvent), 32u);
  EXPECT_TRUE(std::is_trivially_copyable_v<TraceEvent>);
}

TEST(RingRecorder, KeepsEverythingBelowCapacity) {
  RingRecorder ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.record(make_event(i, EventKind::kArrival, static_cast<double>(i)));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].job, i);
}

TEST(RingRecorder, OverwritesOldestWhenFull) {
  RingRecorder ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(make_event(i, EventKind::kStart, static_cast<double>(i)));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The most recent four, oldest first.
  EXPECT_EQ(events.front().job, 6u);
  EXPECT_EQ(events.back().job, 9u);
}

TEST(RingRecorder, EmittersSeeEveryEventEvenWhenRingWraps) {
  RingRecorder ring(2);
  std::vector<std::uint64_t> seen;
  ring.add_emitter([&seen](const TraceEvent& event) { seen.push_back(event.job); });
  for (std::uint64_t i = 0; i < 7; ++i) {
    ring.record(make_event(i, EventKind::kFinish, static_cast<double>(i)));
  }
  ASSERT_EQ(seen.size(), 7u);
  for (std::uint64_t i = 0; i < 7; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(RingRecorder, ClearForgetsEventsButKeepsTotals) {
  RingRecorder ring(8);
  ring.record(make_event(1, EventKind::kArrival, 0.0));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 1u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(RingRecorder, InvalidCapacityThrows) {
  EXPECT_THROW(RingRecorder(0), std::invalid_argument);
}

TEST(RingRecorder, BinaryRoundTripPreservesEvents) {
  RingRecorder ring(16);
  for (std::uint64_t i = 0; i < 9; ++i) {
    ring.record(make_event(i, EventKind::kPlacementAttempt, 10.5 * static_cast<double>(i)));
  }
  std::stringstream buffer;
  ring.write_binary(buffer);
  const auto events = RingRecorder::read_binary(buffer);
  ASSERT_EQ(events.size(), 9u);
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(events[i].job, i);
    EXPECT_EQ(events[i].kind, EventKind::kPlacementAttempt);
    EXPECT_DOUBLE_EQ(events[i].time, 10.5 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(events[i].value, 21.0 * static_cast<double>(i));
    EXPECT_EQ(events[i].cluster, 2);
  }
}

TEST(RingRecorder, BinaryRejectsBadMagic) {
  std::stringstream buffer("XXXX garbage");
  EXPECT_THROW(RingRecorder::read_binary(buffer), std::invalid_argument);
}

TEST(RingRecorder, BinaryRejectsTruncatedStream) {
  RingRecorder ring(4);
  ring.record(make_event(1, EventKind::kArrival, 0.0));
  ring.record(make_event(2, EventKind::kArrival, 1.0));
  std::stringstream buffer;
  ring.write_binary(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 8);  // cut into the last event
  std::stringstream cut(bytes);
  EXPECT_THROW(RingRecorder::read_binary(cut), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::obs
