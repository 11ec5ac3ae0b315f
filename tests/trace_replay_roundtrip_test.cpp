// The closed round-trip gate: export a run's realised schedule as an SWF
// trace, replay it through TraceWorkload under the same policy, and every
// per-job wait and every response/wait statistic must reproduce the
// identical bits (EXPECT_EQ on doubles — same tier as obs_roundtrip_test).
//
// This holds because the engine decomposes response = wait + run, the SWF
// writer exports wait/run verbatim at full precision, and the replay path
// re-derives components/service deterministically from the preserved total
// size. Slowdown and the utilization figures are NOT part of the
// guarantee: they depend on the net service time, which the replay
// reconstructs as run / extension_factor rather than reading it from the
// log (docs/TRACING.md, "Replaying traces").
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/engine.hpp"
#include "core/job.hpp"
#include "exp/golden.hpp"
#include "exp/manifest.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/swf_builder.hpp"
#include "test_support.hpp"
#include "trace/swf.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim {
namespace {

exp::ScenarioSpec synthetic_spec(PolicyKind policy, double utilization,
                                 std::uint64_t jobs) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.mode = exp::RunMode::kPoint;
  spec.utilization = utilization;
  spec.sim_jobs = jobs;
  spec.seed = 7;
  return spec;
}

struct ExportedRun {
  SimulationResult result;
  SwfTrace trace;
};

/// Run the spec with an SWF builder attached — the exact export path
/// `mcsim run --trace-out` uses.
ExportedRun run_and_export(const exp::ScenarioSpec& spec) {
  auto sim = exp::build_simulation(spec);
  obs::SwfTraceBuilder builder;
  sim->set_trace_sink(&builder);
  ExportedRun out;
  out.result = sim->run();
  out.trace = builder.trace();
  return out;
}

/// The replay config for an exported trace: same layout/policy/run lengths
/// as the original spec, arrivals from the trace records.
SimulationConfig replay_config(const exp::ScenarioSpec& spec, const SwfTrace& trace) {
  SimulationConfig config = exp::to_simulation_config(spec);
  auto replay = testing::in_memory_trace(usable_trace_records(trace.records));
  replay->component_limit = config.workload.component_limit;
  replay->num_clusters = config.workload.num_clusters;
  replay->extension_factor = config.workload.extension_factor;
  replay->split_jobs = config.workload.split_jobs;
  config.total_jobs = replay->usable_records;
  config.trace_workload = std::move(replay);
  return config;
}

void expect_stats_bits_equal(const RunningStats& want, const RunningStats& got) {
  EXPECT_EQ(want.count(), got.count());
  EXPECT_EQ(want.mean(), got.mean());
  EXPECT_EQ(want.stddev(), got.stddev());
  EXPECT_EQ(want.min(), got.min());
  EXPECT_EQ(want.max(), got.max());
}

/// The round-trip contract: wait/response statistics bit-identical.
void expect_roundtrip_exact(const SimulationResult& original,
                            const SimulationResult& replay) {
  ASSERT_FALSE(original.unstable);
  ASSERT_FALSE(replay.unstable);
  EXPECT_EQ(original.completed_jobs, replay.completed_jobs);
  EXPECT_EQ(original.measured_jobs, replay.measured_jobs);
  expect_stats_bits_equal(original.response_all, replay.response_all);
  expect_stats_bits_equal(original.response_local, replay.response_local);
  expect_stats_bits_equal(original.response_global, replay.response_global);
  expect_stats_bits_equal(original.response_small, replay.response_small);
  expect_stats_bits_equal(original.response_medium, replay.response_medium);
  expect_stats_bits_equal(original.response_large, replay.response_large);
  expect_stats_bits_equal(original.wait_all, replay.wait_all);
  EXPECT_EQ(original.response_ci.mean, replay.response_ci.mean);
  EXPECT_EQ(original.response_ci.halfwidth, replay.response_ci.halfwidth);
  EXPECT_EQ(original.response_p95, replay.response_p95);
}

TEST(TraceReplayRoundTrip, GsIsBitExact) {
  const auto spec = synthetic_spec(PolicyKind::kGS, 0.55, 3000);
  const ExportedRun original = run_and_export(spec);
  ASSERT_EQ(original.trace.records.size(), original.result.completed_jobs);

  const SimulationResult replay = run_simulation(replay_config(spec, original.trace));
  expect_roundtrip_exact(original.result, replay);
}

TEST(TraceReplayRoundTrip, LsIsBitExact) {
  const auto spec = synthetic_spec(PolicyKind::kLS, 0.45, 3000);
  const ExportedRun original = run_and_export(spec);
  const SimulationResult replay = run_simulation(replay_config(spec, original.trace));
  expect_roundtrip_exact(original.result, replay);
}

TEST(TraceReplayRoundTrip, PerJobWaitsAreBitExact) {
  const auto spec = synthetic_spec(PolicyKind::kGS, 0.55, 2000);
  const ExportedRun original = run_and_export(spec);

  // Replay ids are the position in (submit, id) order, which for a
  // monotone synthetic arrival stream is the original arrival-order id.
  // The exported SWF job id is that id + 1 (SWF ids are 1-based), so
  // record job_id - 1 keys each record's own replay.
  std::unordered_map<std::uint64_t, double> replay_waits;
  MulticlusterSimulation sim(replay_config(spec, original.trace));
  sim.set_job_observer([&replay_waits](const Job& job, double /*finish*/) {
    replay_waits[job.spec.id] = job.start_time - job.spec.arrival_time;
  });
  sim.run();

  ASSERT_EQ(replay_waits.size(), original.trace.records.size());
  std::size_t mismatched = 0;
  for (const TraceRecord& rec : original.trace.records) {
    const auto it = replay_waits.find(rec.job_id - 1);
    ASSERT_NE(it, replay_waits.end()) << "job " << rec.job_id << " not replayed";
    if (it->second != rec.wait_time) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0u);
}

TEST(TraceReplayRoundTrip, SurvivesAFileRoundTrip) {
  // Same property through the on-disk representation: write the trace,
  // read it back, replay the parsed records.
  const auto spec = synthetic_spec(PolicyKind::kGS, 0.5, 1500);
  const ExportedRun original = run_and_export(spec);
  const std::string path = ::testing::TempDir() + "/mcsim_roundtrip_gs.swf";
  write_swf_file(path, original.trace);

  const SimulationResult replay =
      run_simulation(replay_config(spec, read_swf_file(path)));
  expect_roundtrip_exact(original.result, replay);
}

// --- determinism properties ---------------------------------------------

/// A point-mode trace-replay spec, the `mcsim run --trace-in=<trace>` shape.
exp::ScenarioSpec trace_spec(const std::string& path, PolicyKind policy) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.mode = exp::RunMode::kPoint;
  spec.trace_path = path;
  return spec;
}

std::string exported_trace_file(PolicyKind policy, std::uint64_t jobs,
                                const std::string& name) {
  const auto source = synthetic_spec(policy, 0.5, jobs);
  const ExportedRun run = run_and_export(source);
  const std::string path = ::testing::TempDir() + "/" + name;
  write_swf_file(path, run.trace);
  return path;
}

TEST(TraceReplayDeterminism, SameTraceTwiceYieldsIdenticalObservations) {
  const std::string path =
      exported_trace_file(PolicyKind::kGS, 1500, "mcsim_det_twice.swf");
  const auto spec = trace_spec(path, PolicyKind::kGS);
  // canonical_observation covers result statistics, scheduler metrics and
  // the re-exported SWF stream digest — the full observable surface.
  EXPECT_EQ(exp::canonical_observation(spec), exp::canonical_observation(spec));
}

TEST(TraceReplayDeterminism, SameTraceTwiceYieldsByteIdenticalManifests) {
  const std::string path =
      exported_trace_file(PolicyKind::kGS, 1500, "mcsim_det_manifest.swf");
  const auto spec = trace_spec(path, PolicyKind::kGS);

  const auto manifest_for = [&spec](const SimulationConfig& config) {
    SimulationResult result = run_simulation(config);
    // The one nondeterministic field in a manifest is the host wall clock;
    // `mcsim run` measures it, the determinism contract excludes it.
    result.wall_seconds = 0.0;
    ManifestInfo info;
    info.command_line = "determinism-test";
    info.scenario = &spec;
    std::ostringstream out;
    write_run_manifest(out, config, result, nullptr, info);
    return out.str();
  };

  const SimulationConfig config = exp::to_simulation_config(spec);
  const std::string first = manifest_for(config);
  const std::string second = manifest_for(config);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceReplayDeterminism, SweepIsParallelismInvariant) {
  // The --jobs=1 vs --jobs=4 property: a trace sweep fans points out over
  // worker threads, and the series must not depend on the worker count.
  const std::string path =
      exported_trace_file(PolicyKind::kGS, 1200, "mcsim_det_sweep.swf");
  exp::ScenarioSpec spec = trace_spec(path, PolicyKind::kGS);
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = {0.2, 0.35};

  const auto fingerprint = [](const SweepSeries& series) {
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.begin_array();
    for (const SweepPoint& point : series.points) {
      json.begin_object();
      json.key("utilization").value(point.target_gross_utilization);
      json.key("result");
      write_result_json(json, point.result);
      json.end_object();
    }
    json.end_array();
    return out.str();
  };

  spec.parallelism = 1;
  const std::string serial = fingerprint(run_sweep(spec));
  spec.parallelism = 4;
  const std::string parallel = fingerprint(run_sweep(spec));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace mcsim
