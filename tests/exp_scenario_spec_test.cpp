// ScenarioSpec: the declarative description of one experiment, and the
// single construction path under everything. The tests here pin the two
// properties the subsystem exists for: a spec survives a JSON round trip
// unchanged (operator==), and every way of describing the same run — a
// spec built in code, a scenario file, the spec embedded in a run
// manifest — produces bit-identical results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/manifest.hpp"
#include "exp/replications.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json_reader.hpp"

namespace mcsim {
namespace {

namespace fs = std::filesystem;

exp::ScenarioSpec round_trip(const exp::ScenarioSpec& spec) {
  std::ostringstream out;
  exp::write_scenario_file(out, spec);
  return exp::scenario_from_json(obs::parse_json(out.str()));
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(RunMode, NameParseRoundTrip) {
  for (const auto mode : {exp::RunMode::kPoint, exp::RunMode::kSweep,
                          exp::RunMode::kSaturation, exp::RunMode::kReplications}) {
    EXPECT_EQ(exp::parse_run_mode(exp::run_mode_name(mode)), mode);
  }
  EXPECT_EQ(exp::parse_run_mode("SWEEP"), exp::RunMode::kSweep);
  EXPECT_THROW(exp::parse_run_mode("sprint"), std::invalid_argument);
}

TEST(ScenarioSpecJson, DefaultSpecRoundTripsUnchanged) {
  const exp::ScenarioSpec spec;
  EXPECT_EQ(round_trip(spec), spec);
}

TEST(ScenarioSpecJson, EveryFieldSurvivesTheRoundTrip) {
  exp::ScenarioSpec spec;
  spec.name = "full-house \"quoted\"";
  // Sizes chosen so the largest das-s-64 job's (22,21,21) split under
  // limit 24 stays placeable (validate()'s split-feasibility rule).
  spec.cluster_sizes = {24, 32, 48};
  spec.cluster_speeds = {1.0, 0.5, 2.0};
  spec.size_model = "das-s-64";
  spec.component_limit = 24;
  spec.extension_factor = 1.3;
  spec.balanced_queues = false;
  spec.queue_weights = {0.5, 0.25, 0.25};
  spec.request_type = RequestType::kOrdered;
  spec.policy = PolicyKind::kGS;
  spec.placement = PlacementRule::kBestFit;
  spec.backfill = BackfillMode::kEasy;
  spec.discipline = QueueDiscipline::kShortestJobFirst;
  spec.mode = exp::RunMode::kSweep;
  spec.utilization = 0.6180339887498949;  // bit-exactness matters
  spec.utilization_grid = {0.3, 0.55, 0.7};
  spec.sweep_from = 0.2;
  spec.sweep_to = 0.9;
  spec.sweep_step = 0.1;
  spec.sim_jobs = 12345;
  spec.replications = 7;
  spec.saturation_completions = 777;
  spec.saturation_backlog = 42;
  spec.seed = 0xFFFFFFFFFFFFFFFFull;  // needs full 64-bit integer reads
  spec.warmup_fraction = 0.15;
  spec.batch_count = 10;
  spec.parallelism = 3;
  EXPECT_EQ(round_trip(spec), spec);
}

TEST(ScenarioSpecJson, SaturationModeRoundTrips) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSaturation;
  spec.policy = PolicyKind::kSC;
  spec.saturation_completions = 5000;
  EXPECT_EQ(round_trip(spec), spec);
}

TEST(ScenarioSpecJson, MissingKeysKeepDefaults) {
  const auto spec = exp::scenario_from_json(obs::parse_json(
      R"({"schema": "mcsim-scenario", "policy": {"kind": "LS"}})"));
  exp::ScenarioSpec expected;
  expected.policy = PolicyKind::kLS;
  EXPECT_EQ(spec, expected);
}

TEST(ScenarioSpecJson, UnknownKeysAreRejected) {
  EXPECT_THROW(exp::scenario_from_json(obs::parse_json(R"({"polciy": {}})")),
               std::invalid_argument);
  EXPECT_THROW(exp::scenario_from_json(
                   obs::parse_json(R"({"run": {"utilisation": 0.5}})")),
               std::invalid_argument);
  EXPECT_THROW(exp::scenario_from_json(
                   obs::parse_json(R"({"workload": {"sizemodel": "das-s-128"}})")),
               std::invalid_argument);
  // `engine` is not a run key: any value fails instead of being ignored.
  for (const char* value : {"serial", "parallel"}) {
    try {
      (void)exp::scenario_from_json(obs::parse_json(
          std::string(R"({"run": {"engine": ")") + value + R"("}})"));
      FAIL() << "run.engine = " << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(R"(unknown run key "engine")"),
                std::string::npos)
          << error.what();
    }
  }
  // Nor is `whole_file` a workload key: every replay streams.
  try {
    (void)exp::scenario_from_json(obs::parse_json(
        R"({"workload": {"type": "trace", "path": "a.swf", "whole_file": true}})"));
    FAIL() << "workload.whole_file was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(R"(unknown workload key "whole_file")"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpecJson, ThirtyTwoBitFieldsRejectWiderValues) {
  // UINT32_MAX is the largest window; one more used to wrap to 0 (the
  // default window) and 2^32 + 1 to a one-record window.
  const auto lookahead = [](const std::string& value) {
    return exp::scenario_from_json(obs::parse_json(
        R"({"workload": {"type": "trace", "path": "a.swf", "lookahead": )" + value +
        "}}"));
  };
  EXPECT_EQ(lookahead("4294967295").trace_lookahead, 4294967295u);
  for (const char* value : {"4294967296", "4294967297", "18446744073709551615"}) {
    try {
      (void)lookahead(value);
      FAIL() << "workload.lookahead = " << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("workload.lookahead"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
  // The other 32-bit fields read through the same check.
  for (const char* json :
       {R"({"workload": {"component_limit": 4294967312}})",
        R"({"run": {"replications": 4294967297}})",
        R"({"run": {"parallelism": 4294967298}})",
        R"({"system": {"cluster_sizes": [32, 4294967328]}})"}) {
    EXPECT_THROW((void)exp::scenario_from_json(obs::parse_json(json)),
                 std::invalid_argument)
        << json;
  }
}

TEST(ScenarioSpecJson, WrongSchemaIsRejected) {
  EXPECT_THROW(exp::scenario_from_json(obs::parse_json(R"({"schema": "other"})")),
               std::invalid_argument);
  EXPECT_THROW(exp::scenario_from_json(
                   obs::parse_json(R"({"schema_version": 99})")),
               std::invalid_argument);
}

TEST(ScenarioSpecValidate, RejectsInconsistentSpecs) {
  {
    exp::ScenarioSpec spec;
    spec.size_model = "das-s-256";
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;  // backfill needs a single-queue policy
    spec.policy = PolicyKind::kLS;
    spec.backfill = BackfillMode::kEasy;
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    // Disciplines compose with every structure now — LP+sjf is valid.
    exp::ScenarioSpec spec;
    spec.policy = PolicyKind::kLP;
    spec.discipline = QueueDiscipline::kShortestJobFirst;
    EXPECT_NO_THROW(exp::validate(spec));
  }
  {
    exp::ScenarioSpec spec;  // backfill × per-cluster queues cannot compose
    spec.queue_structure = QueueStructure::kPerCluster;
    spec.backfill = BackfillMode::kConservative;
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;  // a component limit must allow >= 1 component
    spec.coallocation = CoAllocationRule{CoAllocationRule::Kind::kComponentLimit, 0};
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    // limit-2 on 4x32 with das-s-128: a 128-proc job split 3+ ways can
    // neither co-allocate nor fit whole on a 32-proc cluster.
    exp::ScenarioSpec spec;
    spec.coallocation = CoAllocationRule{CoAllocationRule::Kind::kComponentLimit, 2};
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;
    spec.queue_weights = {0.5, 0.5};  // 2 weights, 4 clusters
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;
    spec.cluster_speeds = {1.0};  // 1 speed, 4 clusters
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;  // derived unbalanced weights are DAS-specific
    spec.cluster_sizes = {32, 32};
    spec.balanced_queues = false;
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
  {
    exp::ScenarioSpec spec;
    spec.policy = PolicyKind::kSC;
    spec.cluster_sizes = {32, 32, 32, 32};
    EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  }
}

// A generated grid is counted before it is built: 0.30..0.80 by 1e-5 is
// ~50k points, past kMaxSweepPoints, and is refused without allocating it
// (a step of 1e-10 would otherwise allocate until std::bad_alloc).
TEST(ScenarioSpecValidate, RefusesASweepGridPastThePointLimit) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSweep;
  spec.sweep_step = 1e-5;
  ASSERT_THROW(exp::validate(spec), std::invalid_argument);
  try {
    exp::validate(spec);
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("scenario: the sweep grid has more than 10000"),
              std::string::npos)
        << error.what();
  }
  // The daemon's trust boundary parses submits through scenario_from_json.
  EXPECT_THROW(exp::scenario_from_json(obs::parse_json(
                   R"({"run": {"mode": "sweep", "sweep": {"step": 1e-10}}})")),
               std::invalid_argument);
  spec.sweep_step = 0.05;
  spec.sweep_to = std::numeric_limits<double>::infinity();
  EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  spec.sweep_to = 0.80;
  spec.sweep_from = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(exp::validate(spec), std::invalid_argument);
  // The limit itself is reachable: 0..0.9999 by 1e-4 is exactly 10000 points.
  EXPECT_EQ(make_sweep_grid(0.0, 0.9999, 1e-4).size(), kMaxSweepPoints);
}

TEST(ScenarioSpecValidate, SaturationAcceptsPipelineOverrides) {
  // The constant backlog is an arrival mode of the one engine, so every
  // stage override and heterogeneous speeds reach the saturation run.
  exp::ScenarioSpec base;
  base.mode = exp::RunMode::kSaturation;
  std::vector<exp::ScenarioSpec> specs(6, base);
  specs[0].placement = PlacementRule::kFirstFit;
  specs[1].backfill = BackfillMode::kConservative;
  specs[2].discipline = QueueDiscipline::kShortestJobFirst;
  specs[3].queue_structure = QueueStructure::kPerCluster;
  specs[4].coallocation = CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
  specs[5].cluster_speeds = {1.0, 1.0, 1.0, 0.5};
  for (const exp::ScenarioSpec& spec : specs) {
    SimulationConfig config;
    ASSERT_NO_THROW(config = exp::to_simulation_config(spec));
    EXPECT_EQ(config.pipeline, spec.pipeline());
    EXPECT_EQ(config.cluster_speeds, spec.cluster_speeds);
    EXPECT_EQ(config.backlog, spec.saturation_backlog);
  }
}

TEST(ScenarioSpecEquivalence, ScenarioFileRunIsBitIdentical) {
  exp::ScenarioSpec spec;
  spec.utilization = 0.5;
  spec.sim_jobs = 3000;
  spec.seed = 11;

  TempFile file("mcsim_scenario_spec_test_scenario.json");
  {
    std::ofstream out(file.path());
    exp::write_scenario_file(out, spec);
  }
  const auto loaded = exp::load_scenario(file.path());
  EXPECT_EQ(loaded, spec);

  const auto direct = run_simulation(exp::to_simulation_config(spec));
  const auto from_file = run_simulation(exp::to_simulation_config(loaded));
  EXPECT_EQ(direct.mean_response(), from_file.mean_response());
  EXPECT_EQ(direct.completed_jobs, from_file.completed_jobs);
}

TEST(ScenarioSpecEquivalence, ManifestRerunIsBitIdentical) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  spec.utilization = 0.4;
  spec.sim_jobs = 3000;
  spec.seed = 13;

  const auto config = exp::to_simulation_config(spec);
  const auto result = run_simulation(config);

  TempFile file("mcsim_scenario_spec_test_manifest.json");
  {
    std::ofstream out(file.path());
    ManifestInfo info;
    info.scenario = &spec;
    write_run_manifest(out, config, result, /*metrics=*/nullptr, info);
  }

  // load_scenario accepts the manifest directly (`mcsim run <manifest>`).
  const auto replayed = exp::load_scenario(file.path());
  EXPECT_EQ(replayed, spec);
  const auto rerun = run_simulation(exp::to_simulation_config(replayed));
  EXPECT_EQ(result.mean_response(), rerun.mean_response());
  EXPECT_EQ(result.completed_jobs, rerun.completed_jobs);
  EXPECT_EQ(result.busy_fraction, rerun.busy_fraction);
}

TEST(ScenarioSpecEquivalence, ManifestTracePathIsTakenVerbatim) {
  // The embedded path was resolved when the recorded run loaded its
  // scenario, against the directory that run started from. Loading the
  // manifest from another directory must not resolve it a second time.
  exp::ScenarioSpec spec;
  spec.trace_path = "data/das1_synthetic_sample.swf";
  const fs::path dir = fs::temp_directory_path() / "mcsim_scenario_spec_test_manifests";
  fs::create_directories(dir);
  const std::string path = (dir / "trace_run.json").string();
  {
    std::ofstream out(path);
    ManifestInfo info;
    info.scenario = &spec;
    write_run_manifest(out, exp::to_simulation_config(exp::ScenarioSpec{}),
                       SimulationResult{}, /*metrics=*/nullptr, info);
  }
  const exp::ScenarioSpec loaded = exp::load_scenario(path);
  fs::remove_all(dir);
  EXPECT_EQ(loaded.trace_path, spec.trace_path);
  EXPECT_EQ(loaded, spec);
}

TEST(ScenarioSpecEquivalence, ManifestScenarioWithEngineKeyIsRejected) {
  exp::ScenarioSpec spec;
  spec.sim_jobs = 500;
  const auto config = exp::to_simulation_config(spec);
  const auto result = run_simulation(config);
  std::ostringstream manifest;
  ManifestInfo info;
  info.scenario = &spec;
  write_run_manifest(manifest, config, result, /*metrics=*/nullptr, info);

  // Splice an `engine` key into the embedded scenario's run object.
  std::string text = manifest.str();
  const std::size_t at = text.find(R"("parallelism")");
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(text.find(R"("parallelism")", at + 1), std::string::npos);
  text.insert(at, R"("engine": "serial", )");
  TempFile file("mcsim_scenario_spec_test_engine_manifest.json");
  {
    std::ofstream out(file.path());
    out << text;
  }
  try {
    (void)exp::load_scenario(file.path());
    FAIL() << "a manifest scenario with run.engine was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(R"(unknown run key "engine")"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpecEquivalence, ManifestWithoutScenarioIsRejected) {
  exp::ScenarioSpec spec;
  const auto config = exp::to_simulation_config(spec);
  SimulationResult result;

  TempFile file("mcsim_scenario_spec_test_bare_manifest.json");
  {
    std::ofstream out(file.path());
    write_run_manifest(out, config, result, nullptr, ManifestInfo{});
  }
  EXPECT_THROW(exp::load_scenario(file.path()), std::invalid_argument);
}

TEST(ScenarioSpecSaturation, KeepsItsFixedWarmupAndBacklog) {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSaturation;
  spec.saturation_completions = 5000;
  spec.seed = 21;
  spec.warmup_fraction = 0.3;  // not read: saturation keeps a fixed warmup
  const auto config = exp::to_simulation_config(spec);

  EXPECT_EQ(config.cluster_sizes, (std::vector<std::uint32_t>{32, 32, 32, 32}));
  EXPECT_EQ(config.seed, 21u);
  EXPECT_EQ(config.pipeline, spec.pipeline());
  EXPECT_EQ(config.total_jobs, 5000u);
  EXPECT_EQ(config.backlog, 200u);
  EXPECT_EQ(config.warmup_fraction, 0.2);
}

// Every checked-in scenario file must parse and validate, so a typo in
// data/scenarios/ fails here, not in a user's experiment.
TEST(CheckedInScenarios, AllParseAndValidate) {
  const fs::path dir(MCSIM_SCENARIO_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    SCOPED_TRACE(entry.path().string());
    exp::ScenarioSpec spec;
    ASSERT_NO_THROW(spec = exp::load_scenario(entry.path().string()));
    EXPECT_FALSE(spec.name.empty()) << "checked-in scenarios should be named";
    // The spec must also be constructible, not just parseable.
    EXPECT_NO_THROW(exp::to_simulation_config(spec));
  }
  EXPECT_GE(count, 10u) << "expected the paper evaluation set to be present";
}

TEST(ScenarioSpecLabel, FallsBackToPaperLabelAndAnnotatesExtensions) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  EXPECT_EQ(spec.label(), "LS limit=16 DAS-s-128");

  spec.policy = PolicyKind::kGS;
  spec.backfill = BackfillMode::kEasy;
  spec.discipline = QueueDiscipline::kShortestJobFirst;
  EXPECT_NE(spec.label().find("easy-bf"), std::string::npos);
  EXPECT_NE(spec.label().find("sjf"), std::string::npos);

  spec.name = "custom";
  EXPECT_EQ(spec.label(), "custom");
}

// A trace replay takes its jobs from the log: the label names the log's
// basename instead of a synthetic size model or queue balance.
TEST(ScenarioSpecLabel, TraceSpecNamesTheLog) {
  exp::ScenarioSpec spec;
  spec.policy = PolicyKind::kLS;
  spec.trace_path = "data/archive_samples/sdsc_sp2_style.swf";
  EXPECT_EQ(spec.label(), "LS limit=16 sdsc_sp2_style.swf");

  spec.size_model = "das-s-64";
  spec.balanced_queues = false;
  spec.backfill = BackfillMode::kEasy;
  spec.policy = PolicyKind::kGS;
  EXPECT_EQ(spec.label(), "GS limit=16 sdsc_sp2_style.swf easy-bf");
}

}  // namespace
}  // namespace mcsim

// -- archive-dialect trace loading ------------------------------------------
//
// The diagnostics a trace scenario gives for logs that parse but cannot be
// replayed, and the streaming knobs' round trip through scenario JSON.

namespace mcsim::exp {
namespace {

namespace fs = std::filesystem;

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("mcsim_corpus_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    corpus_dir_ = (root_ / "corpus").string();
    fs::create_directories(corpus_dir_);
  }

  void TearDown() override { fs::remove_all(root_); }

  /// A small valid log: header declares the machine, three usable jobs,
  /// one cancelled record.
  std::string write_log(const std::string& name) {
    const std::string path = (fs::path(corpus_dir_) / name).string();
    std::ofstream out(path);
    out << "; MaxProcs: 96\n"
        << "1 0 0 600 32 -1 -1 32 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n"
        << "2 60 0 300 64 -1 -1 64 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"
        << "3 90 0 0 16 -1 -1 16 -1 -1 0 2 -1 -1 -1 -1 -1 -1\n"  // cancelled
        << "4 120 0 900 8 -1 -1 8 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n";
    return path;
  }

  fs::path root_;
  std::string corpus_dir_;
};

// Every checked-in corpus scenario (tools/make_corpus_scenarios) replays its
// log on the machine the header declares, rounded up to 4 equal clusters:
// ctc_style.swf declares 430 processors and replays on 4 x 108 = 432.
TEST_F(CorpusTest, SizesMachineFromHeaderRoundedToClusterMultiple) {
  const fs::path dir = fs::path(MCSIM_SCENARIO_DIR) / "corpus";
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    SCOPED_TRACE(entry.path().string());
    const ScenarioSpec spec = load_scenario(entry.path().string());
    const std::int64_t declared =
        scan_swf_file(spec.trace_path).header.declared_processors();
    ASSERT_GT(declared, 0);
    const auto per_cluster = static_cast<std::uint32_t>((declared + 3) / 4);
    EXPECT_EQ(spec.cluster_sizes, std::vector<std::uint32_t>(4, per_cluster));
    if (entry.path().stem() == "ctc_style") {
      EXPECT_EQ(declared, 430);
      EXPECT_EQ(per_cluster * 4, 432u);
    }
  }
  EXPECT_EQ(count, 4u) << "one scenario per archive sample";
}

TEST_F(CorpusTest, HeaderOnlyLogGetsADistinctDiagnostic) {
  const std::string path = (fs::path(corpus_dir_) / "header_only.swf").string();
  std::ofstream(path) << "; MaxProcs: 128\n; MaxJobs: 0\n";
  ScenarioSpec spec;
  spec.trace_path = path;
  try {
    to_simulation_config(spec);
    FAIL() << "expected a diagnostic";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no job records"), std::string::npos) << what;
    EXPECT_NE(what.find("header"), std::string::npos) << what;
  }
}

TEST_F(CorpusTest, AllRecordsUnusableGetsTheOtherDiagnostic) {
  const std::string path = (fs::path(corpus_dir_) / "cancelled.swf").string();
  std::ofstream(path)
      << "1 0 0 0 32 -1 -1 32 -1 -1 0 0 -1 -1 -1 -1 -1 -1\n"
      << "2 60 0 0 64 -1 -1 64 -1 -1 0 1 -1 -1 -1 -1 -1 -1\n";
  ScenarioSpec spec;
  spec.trace_path = path;
  try {
    to_simulation_config(spec);
    FAIL() << "expected a diagnostic";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no replayable records"), std::string::npos) << what;
    EXPECT_NE(what.find("2 records"), std::string::npos) << what;
  }
}

TEST_F(CorpusTest, MalformedDirectiveSurfacesWithFileAndLine) {
  const std::string path = (fs::path(corpus_dir_) / "bad_directive.swf").string();
  std::ofstream(path) << "; MaxNodes: lots\n"
                      << "1 0 0 600 32 -1 -1 32 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  ScenarioSpec spec;
  spec.trace_path = path;
  try {
    to_simulation_config(spec);
    FAIL() << "expected a diagnostic";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path + ":1:"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxNodes"), std::string::npos) << what;
  }
}

// -- spec round trip of the streaming knobs --------------------------------

TEST_F(CorpusTest, StreamingKnobsRoundTripThroughScenarioJson) {
  const std::string log = write_log("a.swf");
  ScenarioSpec spec;
  spec.trace_path = log;
  spec.trace_lookahead = 512;

  std::ostringstream out;
  write_scenario_file(out, spec);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"lookahead\": 512"), std::string::npos) << text;

  const ScenarioSpec loaded = scenario_from_json(obs::parse_json(text));
  EXPECT_EQ(loaded, spec);

  // Defaults stay silent: pre-streaming trace scenarios emit byte-identical
  // workload objects.
  ScenarioSpec plain;
  plain.trace_path = log;
  std::ostringstream plain_out;
  write_scenario_file(plain_out, plain);
  EXPECT_EQ(plain_out.str().find("lookahead"), std::string::npos);
}

TEST_F(CorpusTest, StreamingKnobsRejectedForSyntheticWorkloads) {
  ScenarioSpec spec;
  spec.trace_lookahead = 512;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::exp
