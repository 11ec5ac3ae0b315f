#include "exp/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "trace/swf_stream.hpp"
#include "util/assert.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim::exp {

namespace fs = std::filesystem;

namespace {

/// Clusters the corpus machine is carved into: the base layout's count
/// when one was given, else the policy default (single cluster for SC,
/// the 4-cluster DAS layout otherwise).
std::uint32_t corpus_cluster_count(const ScenarioSpec& base) {
  if (!base.cluster_sizes.empty()) {
    return static_cast<std::uint32_t>(base.cluster_sizes.size());
  }
  return base.policy == PolicyKind::kSC ? 1u : 4u;
}

/// The per-log spec the corpus runner executes: the base policy stack on a
/// machine sized from the log's own header, replaying the log at the
/// arrival scale that offers `options.utilization`. Fills `facts` with the
/// sizing decisions for the report table.
ScenarioSpec corpus_log_spec(const ScenarioSpec& base, const std::string& log_path,
                             const CorpusOptions& options, const SwfScan& scan,
                             CorpusLogVerdict& facts) {
  const std::uint32_t clusters = corpus_cluster_count(base);
  const std::int64_t declared = scan.header.declared_processors();
  const std::uint64_t width = declared > 0
                                  ? static_cast<std::uint64_t>(declared)
                                  : scan.summary.max_processors;
  MCSIM_REQUIRE(width > 0, "corpus: " + log_path +
                               " declares no machine and has no usable job "
                               "to size one from");
  const std::uint64_t per_cluster = (width + clusters - 1) / clusters;

  facts.total_records = scan.summary.total_records;
  facts.usable_records = scan.summary.usable_records;
  facts.header_processors = declared > 0 ? static_cast<std::uint64_t>(declared) : 0;
  facts.machine_processors = static_cast<std::uint32_t>(per_cluster * clusters);

  ScenarioSpec spec = base;
  spec.name = "corpus " + fs::path(log_path).filename().string();
  spec.mode = RunMode::kPoint;
  spec.trace_path = log_path;
  spec.trace_lookahead = options.lookahead;
  spec.cluster_sizes.assign(clusters, static_cast<std::uint32_t>(per_cluster));
  spec.trace_scale = trace_scale_for_utilization(
      scan.summary, facts.machine_processors, options.utilization);
  facts.arrival_scale = spec.trace_scale;
  return spec;
}

void write_summary_file(std::ostream& out, const CorpusLogVerdict& facts,
                        const std::string& observation_json) {
  const obs::JsonValue observed = obs::parse_json(observation_json);
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("mcsim-corpus-summary");
  json.key("schema_version").value(kCorpusSummarySchemaVersion);
  json.key("log").value(facts.log_file);
  json.key("digest").value(observation_digest(observed));
  json.key("provenance").begin_object();
  json.key("git_describe").value(git_describe());
  json.key("generated_by").value("mcsim replay --corpus --update-goldens");
  json.end_object();
  json.key("observed");
  write_parsed_json(json, observed);
  json.end_object();
  out << '\n';
}

CorpusLogVerdict run_one(const ScenarioSpec& base, const fs::path& log_path,
                         const CorpusOptions& options) {
  CorpusLogVerdict verdict;
  verdict.log_file = log_path.filename().string();

  std::string observation;
  try {
    observation =
        corpus_log_observation(base, log_path.string(), options, &verdict);
  } catch (const std::exception& error) {
    verdict.status = VerifyStatus::kError;
    verdict.detail = error.what();
    return verdict;
  }

  if (options.golden_mode == CorpusGoldenMode::kNone) {
    verdict.status = VerifyStatus::kPass;
    verdict.detail = observation_digest(obs::parse_json(observation));
    return verdict;
  }

  const std::string summary_path =
      corpus_summary_path_for(options.golden_dir, verdict.log_file);

  if (options.golden_mode == CorpusGoldenMode::kUpdate) {
    std::ofstream out(summary_path);
    if (!out) {
      verdict.status = VerifyStatus::kError;
      verdict.detail = "cannot open " + summary_path;
      return verdict;
    }
    write_summary_file(out, verdict, observation);
    verdict.status = VerifyStatus::kUpdated;
    verdict.detail = observation_digest(obs::parse_json(observation));
    return verdict;
  }

  if (!fs::exists(summary_path)) {
    verdict.status = VerifyStatus::kMissingGolden;
    verdict.detail = "no summary at " + summary_path +
                     " (run `mcsim replay --corpus ... --update-goldens`)";
    return verdict;
  }

  obs::JsonValue document;
  try {
    document = obs::parse_json_file(summary_path);
  } catch (const std::exception& error) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = error.what();
    return verdict;
  }
  const obs::JsonValue* schema =
      document.is_object() ? document.find("schema") : nullptr;
  const obs::JsonValue* observed =
      document.is_object() ? document.find("observed") : nullptr;
  const obs::JsonValue* digest =
      document.is_object() ? document.find("digest") : nullptr;
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "mcsim-corpus-summary" || observed == nullptr ||
      digest == nullptr || !digest->is_string()) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = summary_path + " is not a corpus summary document";
    return verdict;
  }

  const obs::JsonValue got = obs::parse_json(observation);
  const CompareOutcome outcome =
      compare_observations(*observed, got, GoldenOptions{});
  if (!outcome.match) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = outcome.first.describe();
    return verdict;
  }
  // Same tamper seal as the scenario goldens: a hand-edited digest (or a
  // reformatted file) fails loudly even when the fields still match.
  const std::string stored_seal = observation_digest(*observed);
  if (digest->as_string() != stored_seal) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = "summary digest seal broken: file says " +
                     digest->as_string() + ", content hashes to " + stored_seal +
                     " (regenerate with --update-goldens)";
    return verdict;
  }
  verdict.status = VerifyStatus::kPass;
  verdict.detail = stored_seal;
  return verdict;
}

}  // namespace

bool CorpusReport::ok() const {
  return std::all_of(verdicts.begin(), verdicts.end(), [](const CorpusLogVerdict& v) {
    return v.status == VerifyStatus::kPass || v.status == VerifyStatus::kUpdated;
  });
}

std::string corpus_summary_path_for(const std::string& golden_dir,
                                    const std::string& log_file) {
  const std::string stem = fs::path(log_file).stem().string();
  return (fs::path(golden_dir) / (stem + ".summary.json")).string();
}

std::string corpus_log_observation(const ScenarioSpec& base,
                                   const std::string& log_path,
                                   const CorpusOptions& options,
                                   CorpusLogVerdict* facts) {
  const SwfScan scan = scan_swf_file(log_path);
  CorpusLogVerdict local;
  CorpusLogVerdict& out_facts = facts != nullptr ? *facts : local;
  const ScenarioSpec spec =
      corpus_log_spec(base, log_path, options, scan, out_facts);
  validate(spec);

  MulticlusterSimulation simulation(to_simulation_config(spec));
  const SimulationResult result = simulation.run();

  std::ostringstream text;
  obs::JsonWriter json(text);
  json.begin_object();
  json.key("log").value(fs::path(log_path).filename().string());
  json.key("records").begin_object();
  json.key("total").value(out_facts.total_records);
  json.key("usable").value(out_facts.usable_records);
  json.end_object();
  json.key("header_processors").value(out_facts.header_processors);
  json.key("machine").begin_object();
  json.key("clusters")
      .value(static_cast<std::uint64_t>(spec.cluster_sizes.size()));
  json.key("cluster_size")
      .value(static_cast<std::uint64_t>(spec.cluster_sizes.front()));
  json.end_object();
  json.key("target_utilization").value(options.utilization);
  json.key("arrival_scale").value(spec.trace_scale);
  json.key("result");
  write_result_json(json, result);
  json.key("end_time").value(result.end_time);
  json.key("events_executed").value(result.events_executed);
  json.end_object();
  text << '\n';
  return text.str();
}

CorpusReport run_corpus(const ScenarioSpec& base, const std::string& corpus_dir,
                        const CorpusOptions& options) {
  MCSIM_REQUIRE(fs::is_directory(corpus_dir),
                "corpus: " + corpus_dir + " is not a directory");
  MCSIM_REQUIRE(options.golden_mode == CorpusGoldenMode::kNone ||
                    !options.golden_dir.empty(),
                "corpus: golden check/update needs a golden directory");

  std::vector<fs::path> logs;
  for (const auto& entry : fs::directory_iterator(corpus_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".swf") {
      logs.push_back(entry.path());
    }
  }
  std::sort(logs.begin(), logs.end());
  MCSIM_REQUIRE(!logs.empty(), "corpus: no .swf logs under " + corpus_dir);

  CorpusReport report;
  report.verdicts.reserve(logs.size());
  for (const fs::path& log : logs) {
    report.verdicts.push_back(run_one(base, log, options));
  }

  // Stale summaries (a golden with no log) rot silently otherwise: flag
  // them in check mode exactly like the scenario-verify driver does.
  if (options.golden_mode == CorpusGoldenMode::kCheck &&
      fs::is_directory(options.golden_dir)) {
    for (const auto& entry : fs::directory_iterator(options.golden_dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      constexpr std::string_view kSuffix = ".summary.json";
      if (name.size() <= kSuffix.size() ||
          name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
        continue;
      }
      const std::string stem = name.substr(0, name.size() - kSuffix.size());
      const bool has_log = std::any_of(logs.begin(), logs.end(), [&](const fs::path& log) {
        return log.stem().string() == stem;
      });
      if (has_log) continue;
      CorpusLogVerdict orphan;
      orphan.log_file = stem + ".swf";
      orphan.status = VerifyStatus::kOrphanGolden;
      orphan.detail = entry.path().string() + " has no log in " + corpus_dir;
      report.verdicts.push_back(orphan);
    }
  }
  return report;
}

}  // namespace mcsim::exp
