// The PR's acceptance property: a full run exported through the
// observability layer (--trace-out / --metrics-out pipeline) can be read
// back and the run's mean response time reconstructed EXACTLY — same bits,
// not approximately — from the SWF file alone. Plus the zero-cost
// contract: attaching no sink changes nothing about the simulation.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "stats/welford.hpp"
#include "trace/swf.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

struct TracedRun {
  SimulationResult result;
  SwfTrace trace;
  std::string manifest_json;
};

TracedRun run_traced(const SimulationConfig& config) {
  TracedRun run;
  MulticlusterSimulation simulation(config);
  obs::RingRecorder recorder;
  obs::SwfTraceBuilder builder;
  obs::MetricsRegistry metrics;
  recorder.add_emitter([&builder](const obs::TraceEvent& event) { builder.record(event); });
  simulation.set_trace_sink(&recorder);
  simulation.set_metrics(&metrics);
  run.result = simulation.run();

  // Write the SWF trace and manifest to disk and read both back — the same
  // files the CLI's --trace-out / --metrics-out produce. The path encodes
  // the config so concurrently running test processes never collide.
  const std::string swf_path = ::testing::TempDir() + "/mcsim_roundtrip_" +
                               run.result.policy + "_" +
                               std::to_string(config.seed) + "_" +
                               std::to_string(config.total_jobs) + ".swf";
  write_swf_file(swf_path, builder.trace());
  run.trace = read_swf_file(swf_path);

  ManifestInfo info;
  info.trace_path = swf_path;
  info.trace_records = builder.trace().records.size();
  std::ostringstream manifest;
  write_run_manifest(manifest, config, run.result, &metrics, info);
  run.manifest_json = manifest.str();
  return run;
}

// Reconstruct mean response from the re-read trace exactly as the engine
// accumulated it: records are in finish order, the first
// (completed - measured) finishes are warmup.
RunningStats reconstruct_response(const TracedRun& run) {
  RunningStats stats;
  const std::size_t warmup = static_cast<std::size_t>(run.result.completed_jobs) -
                             static_cast<std::size_t>(run.result.measured_jobs);
  for (std::size_t i = warmup; i < run.trace.records.size(); ++i) {
    stats.add(run.trace.records[i].response_time());
  }
  return stats;
}

double manifest_mean_response(const std::string& json) {
  const std::string needle = "\"mean_response\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos);
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

class RoundTrip : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(RoundTrip, SwfReconstructsMeanResponseBitExactly) {
  const auto config = testing::paper_point(GetParam(), 0.45, 8000, /*seed=*/5);
  const auto run = run_traced(config);
  ASSERT_FALSE(run.result.unstable);
  ASSERT_EQ(run.trace.records.size(), run.result.completed_jobs);

  const auto stats = reconstruct_response(run);
  EXPECT_EQ(stats.count(), run.result.measured_jobs);
  // EXPECT_EQ, not NEAR: the decomposed response (wait + run, each stored
  // as an SWF field with round-trip precision) is the exact sequence the
  // engine folded into its statistics, in the same order.
  EXPECT_EQ(stats.mean(), run.result.mean_response());
  EXPECT_EQ(stats.max(), run.result.response_all.max());
  EXPECT_EQ(stats.min(), run.result.response_all.min());
  EXPECT_EQ(stats.stddev(), run.result.response_all.stddev());

  // The manifest's headline number parses back to the identical double.
  EXPECT_EQ(manifest_mean_response(run.manifest_json), run.result.mean_response());
}

INSTANTIATE_TEST_SUITE_P(Policies, RoundTrip,
                         ::testing::Values(PolicyKind::kGS, PolicyKind::kLS,
                                           PolicyKind::kLP),
                         [](const ::testing::TestParamInfo<PolicyKind>& param) {
                           return std::string(policy_name(param.param));
                         });

TEST(RoundTripWait, WaitStatisticsAlsoReconstruct) {
  const auto run = run_traced(testing::paper_point(PolicyKind::kGS, 0.5, 6000, 9));
  ASSERT_FALSE(run.result.unstable);
  RunningStats waits;
  const std::size_t warmup = static_cast<std::size_t>(run.result.completed_jobs) -
                             static_cast<std::size_t>(run.result.measured_jobs);
  for (std::size_t i = warmup; i < run.trace.records.size(); ++i) {
    waits.add(run.trace.records[i].wait_time);
  }
  EXPECT_EQ(waits.mean(), run.result.wait_all.mean());
}

TEST(NullSink, AttachingNothingChangesNothing) {
  const auto config = testing::paper_point(PolicyKind::kLS, 0.5, 6000, 3);

  const auto bare = run_simulation(config);

  MulticlusterSimulation traced(config);
  obs::RingRecorder recorder;
  obs::MetricsRegistry metrics;
  traced.set_trace_sink(&recorder);
  traced.set_metrics(&metrics);
  const auto observed = traced.run();

  // The sink only watches: event count, schedule and every statistic are
  // bit-identical with and without observability attached.
  EXPECT_EQ(bare.events_executed, observed.events_executed);
  EXPECT_EQ(bare.completed_jobs, observed.completed_jobs);
  EXPECT_EQ(bare.end_time, observed.end_time);
  EXPECT_EQ(bare.mean_response(), observed.mean_response());
  EXPECT_EQ(bare.response_p95, observed.response_p95);
  EXPECT_EQ(bare.busy_fraction, observed.busy_fraction);
  EXPECT_EQ(bare.mean_queue_length, observed.mean_queue_length);
}

TEST(NullSink, DetachingResetsTheFastPath) {
  const auto config = testing::paper_point(PolicyKind::kGS, 0.4, 1000, 2);
  MulticlusterSimulation simulation(config);
  obs::MetricsRegistry metrics;
  simulation.set_metrics(&metrics);
  simulation.set_metrics(nullptr);  // detach again before the run
  const auto result = simulation.run();
  EXPECT_GT(result.completed_jobs, 0u);
  // Nothing was counted: the registry still holds the attach-time zeros.
  EXPECT_EQ(metrics.counters().at("jobs.arrived"), 0u);
}

TEST(SinkCoverage, EveryLifecycleKindAppearsInTheStream) {
  const auto config = testing::paper_point(PolicyKind::kLS, 0.55, 4000, 7);
  MulticlusterSimulation simulation(config);
  obs::RingRecorder recorder;
  std::array<std::uint64_t, 6> kind_counts{};
  recorder.add_emitter([&kind_counts](const obs::TraceEvent& event) {
    ++kind_counts[static_cast<std::size_t>(event.kind)];
  });
  simulation.set_trace_sink(&recorder);
  const auto result = simulation.run();

  using obs::EventKind;
  EXPECT_EQ(kind_counts[static_cast<std::size_t>(EventKind::kArrival)],
            config.total_jobs);
  EXPECT_EQ(kind_counts[static_cast<std::size_t>(EventKind::kStart)],
            result.completed_jobs);
  EXPECT_EQ(kind_counts[static_cast<std::size_t>(EventKind::kFinish)],
            result.completed_jobs);
  // Each job is considered at least once, so head-of-queue events land in
  // [completed, attempts].
  const auto head = kind_counts[static_cast<std::size_t>(EventKind::kHeadOfQueue)];
  const auto attempts =
      kind_counts[static_cast<std::size_t>(EventKind::kPlacementAttempt)];
  EXPECT_GE(head, result.completed_jobs);
  EXPECT_LE(head, attempts);
  // At 0.55 load LS sees contention: some placements must fail.
  EXPECT_GT(kind_counts[static_cast<std::size_t>(EventKind::kPlacementReject)], 0u);
}

}  // namespace
}  // namespace mcsim
