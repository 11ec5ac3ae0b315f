// The generated scenario suites: the curated pipeline matrix
// (data/scenarios/matrix/, written by tools/make_scenario_matrix) and the
// archive corpus (data/scenarios/corpus/, written by
// tools/make_corpus_scenarios). Every checked-in scenario of either loads,
// validates, and is pinned by a well-formed sealed golden; no golden is
// stale; and the matrix actually spans the pipeline axes it exists to
// cover (disciplines on every structure, all backfill variants, the
// placement rules, and the restricted co-allocation rules).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "exp/golden.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json_reader.hpp"
#include "policy/pipeline.hpp"

#ifndef MCSIM_MATRIX_SCENARIO_DIR
#define MCSIM_MATRIX_SCENARIO_DIR "data/scenarios/matrix"
#endif
#ifndef MCSIM_MATRIX_GOLDEN_DIR
#define MCSIM_MATRIX_GOLDEN_DIR "data/golden/matrix"
#endif
#ifndef MCSIM_CORPUS_SCENARIO_DIR
#define MCSIM_CORPUS_SCENARIO_DIR "data/scenarios/corpus"
#endif
#ifndef MCSIM_CORPUS_GOLDEN_DIR
#define MCSIM_CORPUS_GOLDEN_DIR "data/golden/corpus"
#endif

namespace mcsim {
namespace {

namespace fs = std::filesystem;

/// A generated, sealed scenario suite.
struct SealedSuite {
  const char* scenario_dir;
  const char* golden_dir;
  std::size_t at_least;  ///< scenarios the generator writes
  bool traces;           ///< every scenario replays a log (else none does)
};

constexpr SealedSuite kMatrix{MCSIM_MATRIX_SCENARIO_DIR, MCSIM_MATRIX_GOLDEN_DIR, 28,
                              false};
constexpr SealedSuite kSuites[] = {
    kMatrix, {MCSIM_CORPUS_SCENARIO_DIR, MCSIM_CORPUS_GOLDEN_DIR, 4, true}};

std::map<std::string, exp::ScenarioSpec> load_suite(const char* scenario_dir) {
  std::map<std::string, exp::ScenarioSpec> specs;
  for (const auto& entry : fs::directory_iterator(scenario_dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
    specs.emplace(entry.path().filename().string(),
                  exp::load_scenario(entry.path().string()));
  }
  return specs;
}

TEST(MatrixCorpus, EveryScenarioLoadsAndValidates) {
  for (const SealedSuite& suite : kSuites) {
    const auto specs = load_suite(suite.scenario_dir);
    EXPECT_GE(specs.size(), suite.at_least) << suite.scenario_dir;
    for (const auto& [file, spec] : specs) {
      SCOPED_TRACE(file);
      EXPECT_NO_THROW(exp::validate(spec));
      // Both suites are cheap, always-on corpora: single runs only, points
      // plus the constant-backlog estimates named *_saturation.
      const bool saturation = file.ends_with("_saturation.json");
      EXPECT_EQ(spec.mode, saturation ? exp::RunMode::kSaturation : exp::RunMode::kPoint);
      EXPECT_EQ(spec.is_trace(), suite.traces);
      EXPECT_FALSE(spec.name.empty());
    }
  }
}

TEST(MatrixCorpus, EveryScenarioHasASealedGolden) {
  for (const SealedSuite& suite : kSuites) {
    for (const auto& [file, spec] : load_suite(suite.scenario_dir)) {
      SCOPED_TRACE(file);
      const std::string golden = exp::golden_path_for(suite.golden_dir, file);
      ASSERT_TRUE(fs::exists(golden)) << "missing golden: " << golden;
      const obs::JsonValue document = obs::parse_json_file(golden);
      ASSERT_TRUE(document.is_object());
      EXPECT_EQ(document.find("schema")->as_string(), "mcsim-golden");
      EXPECT_EQ(document.find("scenario_file")->as_string(), file);
      // The seal: the recorded digest must match the embedded observation.
      const obs::JsonValue* observation = document.find("observed");
      ASSERT_NE(observation, nullptr);
      EXPECT_EQ(document.find("digest")->as_string(),
                exp::observation_digest(*observation));
    }
  }
}

// Every file in a suite's golden directory is a golden of one of its
// scenarios: a stale golden or a file of another format fails here.
TEST(MatrixCorpus, NoStaleGoldens) {
  for (const SealedSuite& suite : kSuites) {
    const auto specs = load_suite(suite.scenario_dir);
    for (const auto& entry : fs::directory_iterator(suite.golden_dir)) {
      const std::string name = entry.path().filename().string();
      constexpr std::string_view kSuffix = ".golden.json";
      EXPECT_TRUE(name.ends_with(kSuffix)) << "not a golden: " << entry.path();
      if (!name.ends_with(kSuffix)) continue;
      const std::string stem = name.substr(0, name.size() - kSuffix.size());
      EXPECT_TRUE(specs.contains(stem + ".json")) << "stale golden: " << entry.path();
    }
  }
}

TEST(MatrixCorpus, SpansThePipelineAxes) {
  std::set<QueueStructure> structures;
  std::set<QueueDiscipline> disciplines;
  std::set<BackfillMode> backfills;
  std::set<PlacementRule> placements;
  std::set<CoAllocationRule::Kind> rules;
  for (const auto& [file, spec] : load_suite(kMatrix.scenario_dir)) {
    const PipelineSpec pipeline = spec.pipeline();
    structures.insert(pipeline.structure);
    disciplines.insert(pipeline.discipline);
    backfills.insert(pipeline.backfill);
    placements.insert(pipeline.placement);
    rules.insert(pipeline.coallocation.kind);
  }
  EXPECT_EQ(structures.size(), 3u) << "every queue structure";
  EXPECT_GE(disciplines.size(), 3u) << "fcfs plus reordering disciplines";
  EXPECT_EQ(backfills.size(), 4u) << "none, aggressive, easy, conservative";
  EXPECT_EQ(placements.size(), 4u) << "WF, FF, BF, LA";
  EXPECT_EQ(rules.size(), 3u) << "co, no-co, limit-L";
}

// Every other sealed scenario uses unordered requests; the ordered and
// flexible generator and placement paths need bit-exact pins of their own.
TEST(MatrixCorpus, CoversEveryMulticlusterRequestType) {
  std::set<RequestType> types;
  for (const auto& [file, spec] : load_suite(kMatrix.scenario_dir)) {
    types.insert(spec.request_type);
  }
  EXPECT_TRUE(types.contains(RequestType::kUnordered));
  EXPECT_TRUE(types.contains(RequestType::kOrdered));
  EXPECT_TRUE(types.contains(RequestType::kFlexible));
}

}  // namespace
}  // namespace mcsim
