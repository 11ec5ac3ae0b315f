// The golden-run gate (exp/golden.hpp): digests, the two comparison
// tiers, tamper detection, the verify driver, and the checked-in corpus.
//
// The properties pinned here are the ones CI's `mcsim verify` job rests
// on: an observation is deterministic and survives the golden round trip
// for every policy; changing a digit of a pinned statistic fails the
// verify with the scenario and the field named; a text-only edit still
// trips the digest seal; and every scenario under data/scenarios/ has a
// well-formed golden, so a new scenario cannot land unpinned.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/golden.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json_reader.hpp"

namespace mcsim {
namespace {

namespace fs = std::filesystem;

exp::ScenarioSpec tiny_point(PolicyKind policy) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.mode = exp::RunMode::kPoint;
  spec.utilization = 0.40;
  spec.sim_jobs = 1200;
  spec.seed = 7;
  return spec;
}

std::string golden_text_for(const exp::ScenarioSpec& spec,
                            const std::string& scenario_file) {
  std::ostringstream out;
  exp::write_golden_file(out, spec, scenario_file,
                         exp::canonical_observation(spec));
  return out.str();
}

// A scratch directory pair (scenarios/ + golden/) for driver tests.
class VerifyDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test scratch: ctest runs every case as its own process, so a
    // shared path would let parallel cases clobber each other.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("mcsim_golden_test_") + info->name());
    fs::remove_all(root_);
    scenario_dir_ = (root_ / "scenarios").string();
    golden_dir_ = (root_ / "golden").string();
    fs::create_directories(scenario_dir_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void add_scenario(const std::string& name, const exp::ScenarioSpec& spec) {
    std::ofstream out(fs::path(scenario_dir_) / name);
    exp::write_scenario_file(out, spec);
  }

  static void rewrite(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  fs::path root_;
  std::string scenario_dir_;
  std::string golden_dir_;
};

TEST(Fnv1a64, KnownVectors) {
  // Reference values of the 64-bit FNV-1a offset basis and of "a".
  EXPECT_EQ(exp::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(exp::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(exp::fnv1a64("abc"), exp::fnv1a64("abd"));
}

TEST(Observation, DeterministicAcrossRepeatedRuns) {
  const exp::ScenarioSpec spec = tiny_point(PolicyKind::kLS);
  EXPECT_EQ(exp::canonical_observation(spec), exp::canonical_observation(spec));
}

// The golden round trip must hold for every policy the paper compares —
// GS, LS, LP and SC exercise different queue structures, placement paths
// and event mixes.
TEST(Observation, GoldenSelfVerifiesForEveryPolicy) {
  for (const auto policy : {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP,
                            PolicyKind::kSC}) {
    const exp::ScenarioSpec spec = tiny_point(policy);
    const std::string observation = exp::canonical_observation(spec);
    const obs::JsonValue got = obs::parse_json(observation);

    const obs::JsonValue golden =
        obs::parse_json(golden_text_for(spec, "tiny.json"));
    ASSERT_TRUE(golden.is_object());
    EXPECT_EQ(golden.at("schema").as_string(), "mcsim-golden");
    const obs::JsonValue& observed = golden.at("observed");

    const exp::CompareOutcome outcome = exp::compare_observations(observed, got);
    EXPECT_TRUE(outcome.match) << policy_name(policy) << ": "
                               << outcome.first.describe();
    // Writing and re-reading the observation must not disturb the digest:
    // the seal is over flattened path=value lines, not file formatting.
    EXPECT_EQ(golden.at("digest").as_string(), exp::observation_digest(observed));
    EXPECT_EQ(golden.at("digest").as_string(), exp::observation_digest(got));
  }
}

TEST(Observation, FlattenProducesPathValueLines) {
  const obs::JsonValue value =
      obs::parse_json(R"({"a": 1, "b": {"c": [1.5, true]}, "d": "x"})");
  EXPECT_EQ(exp::flatten_observation(value),
            "a=1\nb.c[0]=1.5\nb.c[1]=true\nd=\"x\"\n");
}

TEST(Compare, BitExactFlagsOneUlpAndReportsDistance) {
  const obs::JsonValue expected = obs::parse_json(R"({"x": 100.00000000000001})");
  const obs::JsonValue got = obs::parse_json(R"({"x": 100.00000000000003})");
  const exp::CompareOutcome outcome = exp::compare_observations(expected, got);
  ASSERT_FALSE(outcome.match);
  EXPECT_EQ(outcome.first.path, "x");
  EXPECT_GE(outcome.first.ulp, 1);
  EXPECT_LE(outcome.first.ulp, 2);
  const std::string text = outcome.first.describe();
  EXPECT_NE(text.find("x: expected"), std::string::npos);
  EXPECT_NE(text.find("ULP"), std::string::npos);
}

TEST(Compare, BitExactAcceptsDifferentSpellingOfSameDouble) {
  // 0.5 and 5e-1 parse to identical bits; the compare is on values.
  const obs::JsonValue expected = obs::parse_json(R"({"x": 0.5})");
  const obs::JsonValue got = obs::parse_json(R"({"x": 5e-1})");
  EXPECT_TRUE(exp::compare_observations(expected, got).match);
}

TEST(Compare, MissingExtraAndStructuralDivergences) {
  const obs::JsonValue base = obs::parse_json(R"({"a": 1, "b": [1, 2]})");

  const auto missing = exp::compare_observations(base, obs::parse_json(R"({"b": [1, 2]})"));
  ASSERT_FALSE(missing.match);
  EXPECT_EQ(missing.first.path, "a");
  EXPECT_EQ(missing.first.got, "<missing key>");

  const auto extra =
      exp::compare_observations(base, obs::parse_json(R"({"a": 1, "b": [1, 2], "c": 3})"));
  ASSERT_FALSE(extra.match);
  EXPECT_EQ(extra.first.path, "c");
  EXPECT_EQ(extra.first.expected, "<missing key>");

  const auto shorter =
      exp::compare_observations(base, obs::parse_json(R"({"a": 1, "b": [1]})"));
  ASSERT_FALSE(shorter.match);
  EXPECT_EQ(shorter.first.path, "b.length");

  const auto kind =
      exp::compare_observations(base, obs::parse_json(R"({"a": "1", "b": [1, 2]})"));
  ASSERT_FALSE(kind.match);
  EXPECT_EQ(kind.first.path, "a");
  EXPECT_EQ(kind.first.expected, "number");
  EXPECT_EQ(kind.first.got, "string");
}

TEST_F(VerifyDriverTest, UpdateThenVerifyPasses) {
  exp::ScenarioSpec spec = tiny_point(PolicyKind::kGS);
  spec.sim_jobs = 800;
  add_scenario("tiny_gs.json", spec);

  exp::VerifyOptions options;
  options.parallelism = 1;
  options.update = true;
  const exp::VerifyReport updated =
      exp::verify_goldens(scenario_dir_, golden_dir_, options);
  ASSERT_EQ(updated.verdicts.size(), 1u);
  EXPECT_EQ(updated.verdicts[0].status, exp::VerifyStatus::kUpdated);
  EXPECT_TRUE(updated.ok());

  options.update = false;
  const exp::VerifyReport verified =
      exp::verify_goldens(scenario_dir_, golden_dir_, options);
  ASSERT_EQ(verified.verdicts.size(), 1u);
  EXPECT_EQ(verified.verdicts[0].status, exp::VerifyStatus::kPass);
  EXPECT_EQ(verified.verdicts[0].scenario_file, "tiny_gs.json");
  EXPECT_TRUE(verified.ok());
}

TEST_F(VerifyDriverTest, TamperedStatisticFailsNamingScenarioAndField) {
  exp::ScenarioSpec spec = tiny_point(PolicyKind::kGS);
  spec.sim_jobs = 800;
  add_scenario("tiny_gs.json", spec);
  exp::VerifyOptions options;
  options.parallelism = 1;
  options.update = true;
  exp::verify_goldens(scenario_dir_, golden_dir_, options);

  // Flip the leading digit of the pinned mean response — a real value
  // change.
  const std::string golden_path =
      exp::golden_path_for(golden_dir_, "tiny_gs.json");
  std::string text = slurp(golden_path);
  const std::size_t key = text.find("\"mean_response\": ");
  ASSERT_NE(key, std::string::npos);
  const std::size_t digit = key + std::string("\"mean_response\": ").size();
  text[digit] = text[digit] == '9' ? '8' : static_cast<char>(text[digit] + 1);
  rewrite(golden_path, text);

  options.update = false;
  const exp::VerifyReport report =
      exp::verify_goldens(scenario_dir_, golden_dir_, options);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.verdicts[0].status, exp::VerifyStatus::kFail);
  EXPECT_EQ(report.verdicts[0].scenario_file, "tiny_gs.json");
  EXPECT_NE(report.verdicts[0].detail.find("mean_response"), std::string::npos)
      << report.verdicts[0].detail;
}

TEST_F(VerifyDriverTest, BrokenDigestSealFailsEvenWhenValuesMatch) {
  exp::ScenarioSpec spec = tiny_point(PolicyKind::kSC);
  spec.sim_jobs = 800;
  add_scenario("tiny_sc.json", spec);
  exp::VerifyOptions options;
  options.parallelism = 1;
  options.update = true;
  exp::verify_goldens(scenario_dir_, golden_dir_, options);

  const std::string golden_path =
      exp::golden_path_for(golden_dir_, "tiny_sc.json");
  std::string text = slurp(golden_path);
  const std::size_t seal = text.find("fnv1a64:");
  ASSERT_NE(seal, std::string::npos);
  const std::size_t digit = seal + std::string("fnv1a64:").size();
  text[digit] = text[digit] == 'f' ? '0' : 'f';
  rewrite(golden_path, text);

  options.update = false;
  const exp::VerifyReport report =
      exp::verify_goldens(scenario_dir_, golden_dir_, options);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].status, exp::VerifyStatus::kFail);
  EXPECT_NE(report.verdicts[0].detail.find("digest seal"), std::string::npos)
      << report.verdicts[0].detail;
}

TEST_F(VerifyDriverTest, MissingAndOrphanGoldensAreReported) {
  exp::ScenarioSpec spec = tiny_point(PolicyKind::kLP);
  spec.sim_jobs = 800;
  add_scenario("tiny_lp.json", spec);
  fs::create_directories(golden_dir_);
  rewrite((fs::path(golden_dir_) / "stale.golden.json").string(), "{}\n");

  exp::VerifyOptions options;
  options.parallelism = 1;
  const exp::VerifyReport report =
      exp::verify_goldens(scenario_dir_, golden_dir_, options);
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_EQ(report.verdicts[0].status, exp::VerifyStatus::kMissingGolden);
  EXPECT_EQ(report.verdicts[0].scenario_file, "tiny_lp.json");
  EXPECT_EQ(report.verdicts[1].status, exp::VerifyStatus::kOrphanGolden);
  EXPECT_EQ(report.verdicts[1].scenario_file, "stale.golden.json");
  EXPECT_FALSE(report.ok());
}

// -- the checked-in corpus --------------------------------------------------

#ifdef MCSIM_SCENARIO_DIR
#ifdef MCSIM_GOLDEN_DIR

// Every scenario must land with its golden: a new evaluation point cannot
// enter data/scenarios/ unpinned.
TEST(GoldenCorpus, EveryScenarioHasAGolden) {
  std::size_t scenarios = 0;
  for (const auto& entry : fs::directory_iterator(MCSIM_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++scenarios;
    const std::string golden = exp::golden_path_for(
        MCSIM_GOLDEN_DIR, entry.path().filename().string());
    EXPECT_TRUE(fs::exists(golden))
        << entry.path().filename().string() << " has no golden at " << golden
        << " — run `mcsim verify data/golden --update` and commit the result";
  }
  EXPECT_GE(scenarios, 16u);
}

// ... and every golden must still name a live scenario and carry an
// intact digest seal. This is pure parsing (no simulation), so the whole
// corpus is checked on every test run.
TEST(GoldenCorpus, GoldenDocumentsAreWellFormedAndSealed) {
  std::size_t goldens = 0;
  for (const auto& entry : fs::directory_iterator(MCSIM_GOLDEN_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".golden.json")) continue;
    ++goldens;
    const obs::JsonValue document = obs::parse_json_file(entry.path().string());
    ASSERT_TRUE(document.is_object()) << name;
    EXPECT_EQ(document.at("schema").as_string(), "mcsim-golden") << name;
    EXPECT_EQ(document.at("schema_version").as_int(), exp::kGoldenSchemaVersion)
        << name;
    const std::string scenario = document.at("scenario_file").as_string();
    EXPECT_TRUE(fs::exists(fs::path(MCSIM_SCENARIO_DIR) / scenario))
        << name << " points at missing scenario " << scenario;
    EXPECT_EQ(document.at("digest").as_string(),
              exp::observation_digest(document.at("observed")))
        << name << ": digest seal broken — regenerate, don't hand-edit";
  }
  EXPECT_GE(goldens, 16u);
}

#endif  // MCSIM_GOLDEN_DIR
#endif  // MCSIM_SCENARIO_DIR

}  // namespace
}  // namespace mcsim
