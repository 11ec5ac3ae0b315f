// TraceWorkload's bounded-lookahead merge must emit the exact sequence the
// full sort emits — and fail loudly when the log's disorder exceeds the
// window instead of silently misordering.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
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
    EXPECT_NE(what.find("lookahead_window"), std::string::npos) << what;
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

}  // namespace
}  // namespace mcsim
