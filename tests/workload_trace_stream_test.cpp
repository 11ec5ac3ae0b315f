// TraceWorkload's bounded-lookahead merge must emit the exact sequence the
// full sort emits — and fail loudly when the log's disorder exceeds the
// window instead of silently misordering. The window's ring-plus-straggler
// layout must pop exactly what a plain priority queue of the same window
// would, on every input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim {
namespace {

TraceRecord record(std::uint64_t id, double submit, double run,
                   std::uint32_t procs) {
  TraceRecord rec;
  rec.job_id = id;
  rec.submit_time = submit;
  rec.run_time = run;
  rec.processors = procs;
  rec.user_id = static_cast<std::uint32_t>(id);
  return rec;
}

using testing::in_memory_trace;

std::vector<JobSpec> drain(TraceWorkload& source) {
  std::vector<JobSpec> jobs;
  JobSpec job;
  while (source.next(job)) jobs.push_back(job);
  return jobs;
}

TEST(TraceStream, StreamingMatchesInMemoryOnScrambledInput) {
  // File order is scrambled but no record is displaced by more than 3
  // positions; a window of 4 reproduces the full sort.
  const std::vector<TraceRecord> scrambled = {
      record(3, 20.0, 60.0, 4), record(1, 0.0, 30.0, 2),
      record(2, 10.0, 45.0, 8), record(5, 40.0, 10.0, 1),
      record(4, 30.0, 20.0, 16), record(6, 50.0, 5.0, 2),
  };

  // The reference: the full sort, passed straight through.
  TraceWorkload sorted(in_memory_trace(usable_trace_records(scrambled), 1));
  TraceWorkload streamed(in_memory_trace(scrambled, 4));

  const std::vector<JobSpec> expected = drain(sorted);
  const std::vector<JobSpec> got = drain(streamed);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_DOUBLE_EQ(got[i].arrival_time, expected[i].arrival_time);
    EXPECT_EQ(got[i].total_size, expected[i].total_size);
    EXPECT_EQ(got[i].components, expected[i].components);
    EXPECT_DOUBLE_EQ(got[i].service_time, expected[i].service_time);
    EXPECT_EQ(got[i].origin_queue, expected[i].origin_queue);
  }
  EXPECT_EQ(streamed.jobs_emitted(), 6u);
}

TEST(TraceStream, SkipsUnusableRecordsMidStream) {
  const std::vector<TraceRecord> records = {
      record(1, 0.0, 30.0, 2),
      record(2, 10.0, 0.0, 8),   // zero run time: cancelled
      record(3, 20.0, 60.0, 0),  // zero processors
      record(4, 30.0, 20.0, 4),
  };
  TraceWorkload streamed(in_memory_trace(records, 64));
  const std::vector<JobSpec> jobs = drain(streamed);
  ASSERT_EQ(jobs.size(), 2u);
  // Replay ids are sequential emission indices, not the log's ids.
  EXPECT_EQ(jobs[0].id, 0u);
  EXPECT_EQ(jobs[1].id, 1u);
  EXPECT_DOUBLE_EQ(jobs[1].arrival_time, 30.0);
}

TEST(TraceStream, DisorderBeyondWindowThrowsInsteadOfMisordering) {
  // The earliest record arrives 3 positions late; a window of 2 pops a
  // later submit first and must detect the inversion when 0.0 surfaces.
  std::vector<TraceRecord> records = {
      record(2, 10.0, 30.0, 2), record(3, 20.0, 30.0, 2),
      record(4, 30.0, 30.0, 2), record(1, 0.0, 30.0, 2),
  };
  auto config = in_memory_trace(std::move(records), 2);
  config->source_path = "scrambled.swf";
  TraceWorkload streamed(std::move(config));
  JobSpec job;
  ASSERT_TRUE(streamed.next(job));
  try {
    while (streamed.next(job)) {
    }
    FAIL() << "expected the out-of-order guard to fire";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("scrambled.swf"), std::string::npos) << what;
    EXPECT_NE(what.find("out of order"), std::string::npos) << what;
    EXPECT_NE(what.find("--lookahead"), std::string::npos) << what;
    EXPECT_NE(what.find("workload.lookahead"), std::string::npos) << what;
  }
}

TEST(TraceStream, WindowOfOneHandlesSortedInput) {
  const std::vector<TraceRecord> records = {
      record(1, 0.0, 30.0, 2), record(2, 10.0, 45.0, 8),
      record(3, 20.0, 60.0, 4),
  };
  TraceWorkload streamed(in_memory_trace(records, 1));
  EXPECT_EQ(drain(streamed).size(), 3u);
}

TEST(TraceStream, RejectsZeroWindow) {
  auto config = in_memory_trace({record(1, 0.0, 30.0, 2)}, 16);
  config->lookahead_window = 0;
  EXPECT_THROW(TraceWorkload{std::move(config)}, std::invalid_argument);
}

// --- window equivalence -------------------------------------------------

/// What a replay produced: the records it emitted (as submit and run time,
/// which the tests below keep unique per record) and the guard's message if
/// it fired.
struct Replay {
  std::vector<std::pair<double, double>> emitted;  // (submit, run)
  std::optional<std::string> fault;
};

/// The reference window: a std::priority_queue of `window` usable records
/// keyed by (submit, job id, file position), topped up before every pop,
/// with the out-of-order guard TraceWorkload applies.
Replay reference_replay(const std::vector<TraceRecord>& records, std::uint32_t window) {
  using Entry = std::tuple<double, std::uint64_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  Replay replay;
  std::size_t next = 0;
  std::optional<std::pair<double, std::uint64_t>> last;
  for (;;) {
    while (heap.size() < window && next < records.size()) {
      const TraceRecord& rec = records[next];
      if (trace_record_usable(rec)) heap.emplace(rec.submit_time, rec.job_id, next);
      ++next;
    }
    if (heap.empty()) return replay;
    const auto [submit, id, position] = heap.top();
    heap.pop();
    if (last && std::make_pair(submit, id) < *last) {
      replay.fault = "record " + std::to_string(id) + " (submit " +
                     std::to_string(submit) +
                     ") is out of order beyond the lookahead window (" +
                     std::to_string(window) + " records)";
      return replay;
    }
    last = std::make_pair(submit, id);
    replay.emitted.emplace_back(submit, records[position].run_time);
  }
}

Replay streamed_replay(const std::vector<TraceRecord>& records, std::uint32_t window) {
  TraceWorkload source(in_memory_trace(records, window));
  Replay replay;
  JobSpec job;
  try {
    while (source.next(job)) {
      replay.emitted.emplace_back(job.arrival_time, job.gross_service_time);
    }
  } catch (const std::invalid_argument& error) {
    replay.fault = error.what();
  }
  return replay;
}

/// TraceWorkload must emit the reference's sequence and, where the
/// reference's guard fires, fire on the same record with the same message.
void expect_matches_reference(const std::vector<TraceRecord>& records,
                              std::uint32_t window) {
  SCOPED_TRACE("window " + std::to_string(window));
  const Replay expected = reference_replay(records, window);
  const Replay got = streamed_replay(records, window);
  EXPECT_EQ(got.emitted, expected.emitted);
  ASSERT_EQ(got.fault.has_value(), expected.fault.has_value())
      << (got.fault ? *got.fault : std::string("no fault"));
  if (expected.fault) {
    EXPECT_NE(got.fault->find("trace <stream>: " + *expected.fault), std::string::npos)
        << *got.fault << "\nexpected: " << *expected.fault;
  }
}

/// Records whose run time (1, 2, ...) names their position in `keys`.
std::vector<TraceRecord> records_from(
    const std::vector<std::pair<double, std::uint64_t>>& keys) {
  std::vector<TraceRecord> records;
  for (const auto& [submit, id] : keys) {
    records.push_back(record(id, submit, static_cast<double>(records.size() + 1), 2));
  }
  return records;
}

/// n records in key order: submit 10*i, job id i.
std::vector<std::pair<double, std::uint64_t>> sorted_keys(std::size_t n) {
  std::vector<std::pair<double, std::uint64_t>> keys;
  for (std::size_t i = 0; i < n; ++i) keys.emplace_back(10.0 * static_cast<double>(i), i);
  return keys;
}

TEST(TraceWindow, MatchesReferenceOnSortedInput) {
  const auto records = records_from(sorted_keys(300));
  for (std::uint32_t window : {1u, 2u, 16u, 4096u}) {
    expect_matches_reference(records, window);
  }
  EXPECT_EQ(streamed_replay(records, 16).emitted.size(), 300u);
}

TEST(TraceWindow, MatchesReferenceWhenEveryBlockArrivesReversed) {
  // Each block of `window` records arrives in reverse: all but the block's
  // first record land behind the ring's back, as stragglers.
  for (std::uint32_t window : {2u, 7u, 64u}) {
    auto keys = sorted_keys(10 * window + 3);
    for (std::size_t start = 0; start < keys.size(); start += window) {
      std::reverse(keys.begin() + static_cast<std::ptrdiff_t>(start),
                   keys.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(keys.size(), start + window)));
    }
    const auto records = records_from(keys);
    expect_matches_reference(records, window);
    const Replay replay = streamed_replay(records, window);
    EXPECT_FALSE(replay.fault.has_value()) << *replay.fault;
    EXPECT_EQ(replay.emitted.size(), keys.size());
  }
}

TEST(TraceWindow, DisplacementOfWindowMinusOnePassesAndOfWindowThrows) {
  for (std::uint32_t window : {1u, 2u, 5u, 32u}) {
    for (std::uint32_t displacement : {window - 1, window}) {
      // The earliest record arrives `displacement` positions late.
      auto keys = sorted_keys(3 * window + 4);
      std::rotate(keys.begin(), keys.begin() + 1,
                  keys.begin() + static_cast<std::ptrdiff_t>(displacement) + 1);
      const auto records = records_from(keys);
      expect_matches_reference(records, window);
      EXPECT_EQ(streamed_replay(records, window).fault.has_value(),
                displacement == window)
          << "window " << window << ", displacement " << displacement;
    }
  }
}

TEST(TraceWindow, MatchesReferenceOnEqualSubmitTimes) {
  // One arrival instant: only the job ids order the records.
  std::vector<std::pair<double, std::uint64_t>> keys;
  for (std::uint64_t id : {4u, 2u, 3u, 1u, 8u, 6u, 7u, 5u, 9u}) keys.emplace_back(100.0, id);
  const auto records = records_from(keys);
  for (std::uint32_t window : {1u, 3u, 4u, 64u}) expect_matches_reference(records, window);
  EXPECT_FALSE(streamed_replay(records, 4).fault.has_value());
}

TEST(TraceWindow, WindowOfOneAndWindowBeyondTheLog) {
  auto keys = sorted_keys(50);
  std::swap(keys[20], keys[21]);
  const auto records = records_from(keys);
  // A window of one passes records straight through and trips on the swap;
  // a window larger than the log is the full sort.
  expect_matches_reference(records, 1);
  EXPECT_TRUE(streamed_replay(records, 1).fault.has_value());
  expect_matches_reference(records, 51);
  expect_matches_reference(records, 4096);
  EXPECT_EQ(streamed_replay(records, 4096).emitted.size(), 50u);
}

TEST(TraceWindow, MatchesReferenceOnSeededShuffles) {
  std::mt19937_64 rng(20030622);
  int faulted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint32_t window = 1u + static_cast<std::uint32_t>(rng() % 48);
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 400);
    // Displace each record by up to `reach` positions: sort the positions
    // jittered by a uniform draw. Most trials stay inside the window; the
    // rest must trip the guard where the reference does. Submit times
    // repeat, and now and then a whole key or an unusable record appears.
    const double reach = static_cast<double>(rng() % (window + 4));
    std::vector<std::pair<double, std::size_t>> jittered;
    for (std::size_t i = 0; i < n; ++i) {
      const double jitter = reach * static_cast<double>(rng() % 1000) / 1000.0;
      jittered.emplace_back(static_cast<double>(i) + jitter, i);
    }
    std::sort(jittered.begin(), jittered.end());
    std::vector<TraceRecord> records;
    for (const auto& [ignored, i] : jittered) {
      const std::uint64_t id = rng() % 16 == 0 ? i / 2 : i;
      TraceRecord rec = record(id, static_cast<double>(i / 3), 0.0, 2);
      rec.run_time = static_cast<double>(records.size() + 1);
      if (rng() % 50 == 0) rec.processors = 0;
      records.push_back(rec);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_reference(records, window);
    if (reference_replay(records, window).fault) ++faulted;
  }
  // The draws cover both outcomes.
  EXPECT_GT(faulted, 0);
  EXPECT_LT(faulted, 60);
}

TEST(TraceWindow, HugeWindowIsNotAllocatedUpFront) {
  const std::vector<TraceRecord> records = {
      record(2, 10.0, 30.0, 2), record(1, 0.0, 30.0, 2), record(3, 20.0, 30.0, 2)};
  // With the pre-scan's count (3), without one (0) and with a stale one
  // (1), the ring grows only as records arrive.
  for (std::uint64_t usable : {3u, 0u, 1u}) {
    auto config = in_memory_trace(records, std::numeric_limits<std::uint32_t>::max());
    config->usable_records = usable;
    TraceWorkload source(std::move(config));
    EXPECT_EQ(drain(source).size(), 3u) << "usable_records " << usable;
  }
}

TEST(TraceWindow, EqualKeysReplayInFileOrder) {
  // Duplicate (submit, job id) keys, told apart by run time, in key order:
  // every window size keeps their file order, as the stable full sort does.
  const std::vector<TraceRecord> sorted = {
      record(1, 0.0, 11.0, 2), record(1, 0.0, 12.0, 2), record(2, 5.0, 13.0, 2),
      record(2, 5.0, 14.0, 2), record(2, 5.0, 15.0, 2), record(3, 9.0, 16.0, 2),
  };
  // The same, with duplicates arriving behind a later record: ties between
  // stragglers, and between a straggler and the ring's front.
  const std::vector<TraceRecord> scrambled = {
      record(1, 0.0, 21.0, 2), record(5, 10.0, 22.0, 2), record(1, 0.0, 23.0, 2),
      record(1, 0.0, 24.0, 2), record(5, 10.0, 25.0, 2), record(1, 0.0, 26.0, 2),
  };
  const auto run_times = [](const std::vector<TraceRecord>& records) {
    std::vector<double> out;
    for (const TraceRecord& rec : records) out.push_back(rec.run_time);
    return out;
  };
  const auto replayed = [](const std::vector<TraceRecord>& records, std::uint32_t window) {
    TraceWorkload source(in_memory_trace(records, window));
    std::vector<double> out;
    for (const JobSpec& job : drain(source)) out.push_back(job.gross_service_time);
    return out;
  };
  for (std::uint32_t window : {1u, 2u, 4096u}) {
    EXPECT_EQ(replayed(sorted, window), run_times(usable_trace_records(sorted)))
        << "window " << window;
  }
  EXPECT_EQ(run_times(usable_trace_records(scrambled)),
            (std::vector<double>{21.0, 23.0, 24.0, 26.0, 22.0, 25.0}));
  for (std::uint32_t window : {4u, 4096u}) {
    EXPECT_EQ(replayed(scrambled, window), run_times(usable_trace_records(scrambled)))
        << "window " << window;
  }
}

}  // namespace
}  // namespace mcsim
