// The JSON run manifest: schema stability, provenance, and bit-exact
// round-trip of the headline result through the text encoding.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "exp/manifest.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

// Extract the number following `"key": ` (first occurrence).
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

struct ManifestFixture {
  SimulationConfig config;
  SimulationResult result;
  obs::MetricsRegistry metrics;
  std::string json;
};

ManifestFixture run_and_write(const ManifestInfo& info = {}) {
  ManifestFixture fixture;
  fixture.config = testing::paper_point(PolicyKind::kGS, 0.4, 3000, /*seed=*/11);
  MulticlusterSimulation simulation(fixture.config);
  simulation.set_metrics(&fixture.metrics);
  fixture.result = simulation.run();
  std::ostringstream out;
  write_run_manifest(out, fixture.config, fixture.result, &fixture.metrics, info);
  fixture.json = out.str();
  return fixture;
}

TEST(Manifest, SchemaKeysAreStable) {
  const auto fixture = run_and_write();
  for (const char* key :
       {"\"schema\": \"mcsim-run-manifest\"", "\"schema_version\": 1",
        "\"provenance\"", "\"git_describe\"", "\"clocks\"", "\"sim_end_time\"",
        "\"wall_seconds\"", "\"events_executed\"", "\"events_per_second\"",
        "\"config\"", "\"policy\"", "\"cluster_sizes\"", "\"workload\"",
        "\"arrival_rate\"", "\"result\"", "\"mean_response\"", "\"response\"",
        "\"ci95\"", "\"per_cluster_busy_fraction\"", "\"metrics\"",
        "\"counters\"", "\"gauges\"", "\"series\""}) {
    EXPECT_NE(fixture.json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(Manifest, MeanResponseRoundTripsBitExactly) {
  const auto fixture = run_and_write();
  EXPECT_EQ(json_number(fixture.json, "mean_response"),
            fixture.result.mean_response());
  EXPECT_EQ(json_number(fixture.json, "sim_end_time"), fixture.result.end_time);
  EXPECT_EQ(json_number(fixture.json, "arrival_rate"),
            fixture.config.workload.arrival_rate);
}

TEST(Manifest, CountsMatchResult) {
  const auto fixture = run_and_write();
  EXPECT_EQ(static_cast<std::uint64_t>(json_number(fixture.json, "completed_jobs")),
            fixture.result.completed_jobs);
  EXPECT_EQ(static_cast<std::uint64_t>(json_number(fixture.json, "measured_jobs")),
            fixture.result.measured_jobs);
}

TEST(Manifest, TraceSectionAppearsOnlyWhenRequested) {
  const auto bare = run_and_write();
  EXPECT_EQ(bare.json.find("\"trace\""), std::string::npos);

  ManifestInfo info;
  info.trace_path = "/tmp/run.swf";
  info.trace_records = 42;
  info.events_recorded = 100;
  info.events_dropped = 3;
  const auto traced = run_and_write(info);
  EXPECT_NE(traced.json.find("\"trace\""), std::string::npos);
  EXPECT_NE(traced.json.find("\"path\": \"/tmp/run.swf\""), std::string::npos);
  EXPECT_EQ(static_cast<std::uint64_t>(json_number(traced.json, "records")), 42u);
  EXPECT_EQ(static_cast<std::uint64_t>(json_number(traced.json, "events_dropped")), 3u);
}

TEST(Manifest, MetricsObjectOmittedWithoutRegistry) {
  const auto config = testing::paper_point(PolicyKind::kGS, 0.4, 1000, 11);
  const auto result = run_simulation(config);
  std::ostringstream out;
  write_run_manifest(out, config, result, nullptr, {});
  EXPECT_EQ(out.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(out.str().find("\"result\""), std::string::npos);
}

TEST(Manifest, GitDescribeIsNonEmpty) {
  EXPECT_NE(std::string(git_describe()), "");
}

TEST(Manifest, CommandLineIsEscaped) {
  ManifestInfo info;
  info.command_line = "mcsim run \"quoted\"";
  const auto fixture = run_and_write(info);
  EXPECT_NE(fixture.json.find("mcsim run \\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace mcsim
