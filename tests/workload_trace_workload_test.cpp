#include "workload/trace_workload.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "test_support.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {
namespace {

TraceRecord record(std::uint64_t id, double submit, double run, std::uint32_t procs,
                   std::uint32_t user = 0) {
  TraceRecord rec;
  rec.job_id = id;
  rec.submit_time = submit;
  rec.run_time = run;
  rec.processors = procs;
  rec.user_id = user;
  return rec;
}

std::shared_ptr<TraceWorkloadConfig> config_for(std::vector<TraceRecord> records) {
  return testing::in_memory_trace(std::move(records));
}

TraceStreamSummary summary_of(const std::vector<TraceRecord>& records) {
  TraceStreamSummary summary;
  for (const TraceRecord& record : records) summary.add(record);
  return summary;
}

TEST(UsableTraceRecords, FiltersUnreplayableRecords) {
  const std::vector<TraceRecord> raw = {
      record(1, 0.0, 10.0, 4),
      record(2, 1.0, 0.0, 4),    // zero run: cancelled before start
      record(3, 2.0, 10.0, 0),   // zero processors: nothing to allocate
      record(4, -5.0, 10.0, 4),  // unknown submit time
      record(5, 3.0, 10.0, 8),
  };
  const auto usable = usable_trace_records(raw);
  ASSERT_EQ(usable.size(), 2u);
  EXPECT_EQ(usable[0].job_id, 1u);
  EXPECT_EQ(usable[1].job_id, 5u);
}

TEST(UsableTraceRecords, SortsBySubmitThenId) {
  const std::vector<TraceRecord> raw = {
      record(3, 5.0, 1.0, 1),
      record(1, 2.0, 1.0, 1),
      record(5, 2.0, 1.0, 1),  // same submit as job 1: id breaks the tie
      record(2, 0.5, 1.0, 1),
  };
  const auto usable = usable_trace_records(raw);
  ASSERT_EQ(usable.size(), 4u);
  EXPECT_EQ(usable[0].job_id, 2u);
  EXPECT_EQ(usable[1].job_id, 1u);
  EXPECT_EQ(usable[2].job_id, 5u);
  EXPECT_EQ(usable[3].job_id, 3u);
}

TEST(TraceUtilization, MatchesHandComputation) {
  // 2 jobs: 4 procs * 50 s + 8 procs * 25 s = 400 proc-seconds of work
  // over a 100 s submit span on 16 processors -> 400 / 1600 = 0.25.
  const std::vector<TraceRecord> records = {
      record(1, 0.0, 50.0, 4),
      record(2, 100.0, 25.0, 8),
  };
  EXPECT_DOUBLE_EQ(trace_offered_gross_utilization(summary_of(records), 16), 0.25);
}

TEST(TraceUtilization, ZeroSpanIsZero) {
  const std::vector<TraceRecord> records = {record(1, 5.0, 50.0, 4),
                                            record(2, 5.0, 25.0, 8)};
  EXPECT_DOUBLE_EQ(trace_offered_gross_utilization(summary_of(records), 16), 0.0);
  EXPECT_DOUBLE_EQ(trace_offered_gross_utilization(TraceStreamSummary{}, 16), 0.0);
}

TEST(TraceUtilization, ScaleIsInherentOverTarget) {
  const std::vector<TraceRecord> records = {
      record(1, 0.0, 50.0, 4),
      record(2, 100.0, 25.0, 8),
  };
  // inherent 0.25 -> target 0.5 compresses submits by half.
  const TraceStreamSummary summary = summary_of(records);
  EXPECT_DOUBLE_EQ(trace_scale_for_utilization(summary, 16, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(trace_scale_for_utilization(summary, 16, 0.125), 2.0);
  EXPECT_THROW((void)trace_scale_for_utilization(TraceStreamSummary{}, 16, 0.5),
               std::invalid_argument);
}

TEST(TraceWorkload, ConvertsRecordsToJobSpecs) {
  auto config = config_for({record(1, 10.0, 900.0, 40, 7), record(2, 20.0, 30.0, 8, 2)});
  config->component_limit = 16;
  config->num_clusters = 4;
  config->extension_factor = 1.25;
  TraceWorkload source(config);

  JobSpec job;
  ASSERT_TRUE(source.next(job));
  EXPECT_EQ(job.id, 0u);
  EXPECT_DOUBLE_EQ(job.arrival_time, 10.0);
  EXPECT_EQ(job.total_size, 40u);
  // Same splitter as the synthetic workload: 40 with limit 16 -> (14,13,13).
  EXPECT_EQ(job.components, split_job(40, 16, 4));
  EXPECT_TRUE(job.wide_area);
  EXPECT_EQ(job.request_type, RequestType::kUnordered);
  // The log's run time is the gross (extended) service time.
  EXPECT_DOUBLE_EQ(job.gross_service_time, 900.0);
  EXPECT_DOUBLE_EQ(job.service_time, 900.0 / 1.25);
  EXPECT_EQ(job.origin_queue, 7u % 4u);

  ASSERT_TRUE(source.next(job));
  EXPECT_EQ(job.id, 1u);
  EXPECT_EQ(job.components, std::vector<std::uint32_t>{8});
  EXPECT_FALSE(job.wide_area);
  // Single-component jobs pay no wide-area extension: net == gross.
  EXPECT_DOUBLE_EQ(job.service_time, 30.0);
  EXPECT_EQ(job.origin_queue, 2u);

  EXPECT_FALSE(source.next(job));  // trace exhausted
  EXPECT_EQ(source.jobs_emitted(), 2u);
}

TEST(TraceWorkload, ArrivalScaleMultipliesSubmitTimes) {
  auto config = config_for({record(1, 100.0, 10.0, 4), record(2, 300.0, 10.0, 4)});
  config->arrival_scale = 0.25;
  TraceWorkload source(config);
  JobSpec job;
  ASSERT_TRUE(source.next(job));
  EXPECT_DOUBLE_EQ(job.arrival_time, 25.0);
  ASSERT_TRUE(source.next(job));
  EXPECT_DOUBLE_EQ(job.arrival_time, 75.0);
}

TEST(TraceWorkload, TotalRequestsWhenSplittingDisabled) {
  auto config = config_for({record(1, 0.0, 10.0, 100)});
  config->split_jobs = false;
  TraceWorkload source(config);
  JobSpec job;
  ASSERT_TRUE(source.next(job));
  EXPECT_EQ(job.request_type, RequestType::kTotal);
  EXPECT_EQ(job.components, std::vector<std::uint32_t>{100});
  EXPECT_FALSE(job.wide_area);
  EXPECT_DOUBLE_EQ(job.service_time, job.gross_service_time);
}

TEST(TraceWorkload, RejectsBadConfigs) {
  EXPECT_THROW(TraceWorkload(nullptr), std::invalid_argument);
  auto zero_scale = config_for({record(1, 0.0, 1.0, 1)});
  zero_scale->arrival_scale = 0.0;
  EXPECT_THROW(TraceWorkload{zero_scale}, std::invalid_argument);
  auto zero_limit = config_for({record(1, 0.0, 1.0, 1)});
  zero_limit->component_limit = 0;
  EXPECT_THROW(TraceWorkload{zero_limit}, std::invalid_argument);
  auto no_source = config_for({record(1, 0.0, 1.0, 1)});
  no_source->open_source = nullptr;
  EXPECT_THROW(TraceWorkload{no_source}, std::invalid_argument);
}

// --- engine integration -------------------------------------------------

SimulationConfig trace_sim_config(std::shared_ptr<const TraceWorkloadConfig> trace) {
  SimulationConfig config;
  config.trace_workload = std::move(trace);
  config.total_jobs = config.trace_workload->usable_records;
  config.warmup_fraction = 0.0;
  config.batch_count = 1;
  return config;
}

TEST(TraceWorkloadEngine, ReplaysEveryUsableRecord) {
  std::vector<TraceRecord> records;
  for (std::uint64_t i = 0; i < 50; ++i) {
    records.push_back(record(i, static_cast<double>(i) * 10.0, 25.0,
                             static_cast<std::uint32_t>(1 + i % 32), // <= cluster size
                             static_cast<std::uint32_t>(i)));
  }
  auto trace = config_for(usable_trace_records(records));
  const auto result = run_simulation(trace_sim_config(trace));
  EXPECT_FALSE(result.unstable);
  EXPECT_EQ(result.completed_jobs, 50u);
  EXPECT_EQ(result.measured_jobs, 50u);
}

TEST(TraceWorkloadEngine, UncontendedJobsHaveZeroWait) {
  // One tiny job at a time, far apart: every wait must be exactly zero and
  // every response exactly the run time.
  auto trace = config_for({record(1, 0.0, 5.0, 1), record(2, 1000.0, 7.0, 1)});
  const auto result = run_simulation(trace_sim_config(trace));
  EXPECT_EQ(result.completed_jobs, 2u);
  EXPECT_EQ(result.wait_all.max(), 0.0);
  EXPECT_EQ(result.response_all.min(), 5.0);
  EXPECT_EQ(result.response_all.max(), 7.0);
}

TEST(TraceWorkloadEngine, ValidateRejectsInconsistentTraceConfigs) {
  // Empty trace.
  auto empty = std::make_shared<TraceWorkloadConfig>();
  SimulationConfig config;
  config.trace_workload = empty;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // total_jobs beyond the trace length.
  auto trace = config_for({record(1, 0.0, 1.0, 1)});
  config = trace_sim_config(trace);
  config.total_jobs = 2;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // Cluster-count mismatch between the trace splitting and the layout.
  auto mismatch = config_for({record(1, 0.0, 1.0, 1)});
  mismatch->num_clusters = 2;
  config = trace_sim_config(mismatch);
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
