#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic_log.hpp"

namespace mcsim {
namespace {

TraceRecord job(double start, double end, std::uint32_t procs) {
  TraceRecord rec;
  rec.submit_time = start;
  rec.wait_time = 0.0;
  rec.run_time = end - start;
  rec.processors = procs;
  return rec;
}

TEST(UtilizationProfile, ConstantFullLoad) {
  // One job using all processors over the whole span.
  const auto profile = utilization_profile({job(0.0, 100.0, 10)}, 10, 4);
  ASSERT_EQ(profile.size(), 4u);
  for (double value : profile) EXPECT_NEAR(value, 1.0, 1e-9);
}

TEST(UtilizationProfile, HalfLoad) {
  const auto profile = utilization_profile({job(0.0, 100.0, 5)}, 10, 5);
  for (double value : profile) EXPECT_NEAR(value, 0.5, 1e-9);
}

TEST(UtilizationProfile, LocalizedJobOnlyFillsItsBuckets) {
  // Span is [0, 100] (submit at 0 of a zero-length marker); job in [50,75].
  std::vector<TraceRecord> records = {job(0.0, 100.0, 0), job(50.0, 75.0, 8)};
  const auto profile = utilization_profile(records, 8, 4);
  EXPECT_NEAR(profile[0], 0.0, 1e-9);
  EXPECT_NEAR(profile[1], 0.0, 1e-9);
  EXPECT_NEAR(profile[2], 1.0, 1e-9);  // [50,75)
  EXPECT_NEAR(profile[3], 0.0, 1e-9);
}

TEST(UtilizationProfile, OverlappingJobsAdd) {
  std::vector<TraceRecord> records = {job(0.0, 100.0, 3), job(0.0, 100.0, 4)};
  const auto profile = utilization_profile(records, 10, 2);
  for (double value : profile) EXPECT_NEAR(value, 0.7, 1e-9);
}

TEST(UtilizationProfile, EmptyTraceIsAllZero) {
  const auto profile = utilization_profile({}, 10, 3);
  for (double value : profile) EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(UtilizationProfile, InvalidArgsThrow) {
  EXPECT_THROW(utilization_profile({}, 0, 3), std::invalid_argument);
  EXPECT_THROW(utilization_profile({}, 10, 0), std::invalid_argument);
}

TEST(RenderTimeline, ContainsAxisAndMean) {
  const std::string chart = render_utilization_timeline({job(0.0, 100.0, 5)}, 10);
  EXPECT_NE(chart.find("(72 buckets)"), std::string::npos);
  EXPECT_NE(chart.find("1.0 |"), std::string::npos);
  EXPECT_NE(chart.find("0.0 |"), std::string::npos);
  EXPECT_NE(chart.find("mean utilization: 0.500"), std::string::npos);
  // Half load over 8 rows: rows below 0.5 filled, above empty.
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(RenderTimeline, WorksOnSyntheticLog) {
  SyntheticLogConfig config;
  config.num_jobs = 2000;
  config.duration_seconds = 10.0 * 24 * 3600;
  const auto trace = generate_synthetic_das1_log(config);
  const std::string chart = render_utilization_timeline(trace.records, 128);
  EXPECT_NE(chart.find("mean utilization:"), std::string::npos);
  EXPECT_GT(chart.size(), 100u);
}

}  // namespace
}  // namespace mcsim
