// Corpus replay driver: per-log machine sizing from the SWF header,
// sealed summary goldens (update / check / tamper / orphan), and the
// trace-loading diagnostics the archive dialect demands.
#include "exp/corpus.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/scenario_spec.hpp"
#include "obs/json_reader.hpp"

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
    golden_dir_ = (root_ / "golden").string();
    fs::create_directories(corpus_dir_);
    fs::create_directories(golden_dir_);
  }

  void TearDown() override { fs::remove_all(root_); }

  /// A small valid log: header declares the machine, three usable jobs,
  /// one cancelled record.
  std::string write_log(const std::string& name, std::int64_t max_procs = 96) {
    const std::string path = (fs::path(corpus_dir_) / name).string();
    std::ofstream out(path);
    if (max_procs >= 0) out << "; MaxProcs: " << max_procs << '\n';
    out << "1 0 0 600 32 -1 -1 32 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n"
        << "2 60 0 300 64 -1 -1 64 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"
        << "3 90 0 0 16 -1 -1 16 -1 -1 0 2 -1 -1 -1 -1 -1 -1\n"  // cancelled
        << "4 120 0 900 8 -1 -1 8 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n";
    return path;
  }

  fs::path root_;
  std::string corpus_dir_;
  std::string golden_dir_;
};

TEST_F(CorpusTest, SizesMachineFromHeaderRoundedToClusterMultiple) {
  write_log("a.swf", 430);  // not divisible by 4
  ScenarioSpec base;
  CorpusOptions options;
  const CorpusReport report = run_corpus(base, corpus_dir_, options);
  ASSERT_EQ(report.verdicts.size(), 1u);
  const CorpusLogVerdict& verdict = report.verdicts.front();
  EXPECT_EQ(verdict.status, VerifyStatus::kPass);
  EXPECT_EQ(verdict.total_records, 4u);
  EXPECT_EQ(verdict.usable_records, 3u);
  EXPECT_EQ(verdict.header_processors, 430u);
  EXPECT_EQ(verdict.machine_processors, 432u);  // 4 x 108
  EXPECT_GT(verdict.arrival_scale, 0.0);
  EXPECT_TRUE(report.ok());
}

TEST_F(CorpusTest, SizesMachineFromWidestJobWhenHeaderIsSilent) {
  write_log("bare.swf", -1);
  ScenarioSpec base;
  const CorpusReport report = run_corpus(base, corpus_dir_, CorpusOptions{});
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts.front().header_processors, 0u);
  EXPECT_EQ(report.verdicts.front().machine_processors, 64u);  // widest job
}

TEST_F(CorpusTest, UpdateThenCheckRoundTrips) {
  write_log("a.swf");
  write_log("b.swf", 128);
  ScenarioSpec base;
  CorpusOptions options;
  options.golden_dir = golden_dir_;

  options.golden_mode = CorpusGoldenMode::kUpdate;
  const CorpusReport updated = run_corpus(base, corpus_dir_, options);
  ASSERT_EQ(updated.verdicts.size(), 2u);
  EXPECT_EQ(updated.verdicts[0].status, VerifyStatus::kUpdated);
  EXPECT_TRUE(updated.ok());
  EXPECT_TRUE(fs::exists(corpus_summary_path_for(golden_dir_, "a.swf")));

  options.golden_mode = CorpusGoldenMode::kCheck;
  const CorpusReport checked = run_corpus(base, corpus_dir_, options);
  ASSERT_EQ(checked.verdicts.size(), 2u);
  for (const CorpusLogVerdict& verdict : checked.verdicts) {
    EXPECT_EQ(verdict.status, VerifyStatus::kPass) << verdict.detail;
  }

  // The summary is a well-formed sealed document.
  const obs::JsonValue document =
      obs::parse_json_file(corpus_summary_path_for(golden_dir_, "a.swf"));
  EXPECT_EQ(document.find("schema")->as_string(), "mcsim-corpus-summary");
  EXPECT_NE(document.find("observed"), nullptr);
  EXPECT_EQ(document.find("observed")->find("records")->find("usable")->as_uint(),
            3u);
}

TEST_F(CorpusTest, TamperedSummaryFailsTheCheck) {
  write_log("a.swf");
  ScenarioSpec base;
  CorpusOptions options;
  options.golden_dir = golden_dir_;
  options.golden_mode = CorpusGoldenMode::kUpdate;
  run_corpus(base, corpus_dir_, options);

  // Flip a digit inside the sealed observation.
  const std::string summary = corpus_summary_path_for(golden_dir_, "a.swf");
  std::stringstream buffer;
  buffer << std::ifstream(summary).rdbuf();
  std::string text = buffer.str();
  const std::size_t pos = text.find("\"usable\": 3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"usable\": 4");
  std::ofstream(summary) << text;

  options.golden_mode = CorpusGoldenMode::kCheck;
  const CorpusReport report = run_corpus(base, corpus_dir_, options);
  EXPECT_EQ(report.verdicts.front().status, VerifyStatus::kFail);
  EXPECT_FALSE(report.ok());
}

TEST_F(CorpusTest, MissingAndOrphanSummariesAreFlagged) {
  write_log("a.swf");
  ScenarioSpec base;
  CorpusOptions options;
  options.golden_dir = golden_dir_;
  options.golden_mode = CorpusGoldenMode::kCheck;

  // No summary yet: missing.
  const CorpusReport missing = run_corpus(base, corpus_dir_, options);
  EXPECT_EQ(missing.verdicts.front().status, VerifyStatus::kMissingGolden);
  EXPECT_FALSE(missing.ok());

  // A summary for a log that is not in the corpus: orphan.
  options.golden_mode = CorpusGoldenMode::kUpdate;
  run_corpus(base, corpus_dir_, options);
  std::ofstream(corpus_summary_path_for(golden_dir_, "gone.swf")) << "{}\n";
  options.golden_mode = CorpusGoldenMode::kCheck;
  const CorpusReport orphaned = run_corpus(base, corpus_dir_, options);
  ASSERT_EQ(orphaned.verdicts.size(), 2u);
  EXPECT_EQ(orphaned.verdicts.back().status, VerifyStatus::kOrphanGolden);
  EXPECT_FALSE(orphaned.ok());
}

TEST_F(CorpusTest, EmptyCorpusDirectoryThrows) {
  EXPECT_THROW(run_corpus(ScenarioSpec{}, corpus_dir_, CorpusOptions{}),
               std::invalid_argument);
}

// -- trace-loading diagnostics ---------------------------------------------

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
