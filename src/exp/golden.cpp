#include "exp/golden.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "exp/replications.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/swf_builder.hpp"
#include "trace/swf.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

// Provenance compiled into the verify binary (set in exp/CMakeLists.txt).
#ifndef MCSIM_COMPILER_INFO
#define MCSIM_COMPILER_INFO "unknown"
#endif
#ifndef MCSIM_BUILD_TYPE
#define MCSIM_BUILD_TYPE "unknown"
#endif

namespace mcsim::exp {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

const char* compare_mode_name(CompareMode mode) {
  switch (mode) {
    case CompareMode::kBitExact: return "bit-exact";
    case CompareMode::kStatistical: return "statistical";
  }
  return "?";
}

CompareMode parse_compare_mode(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "bit-exact" || lower == "bitexact") return CompareMode::kBitExact;
  if (lower == "statistical") return CompareMode::kStatistical;
  MCSIM_REQUIRE(false, "unknown compare mode: " + name +
                           " (expected bit-exact or statistical)");
  return CompareMode::kBitExact;
}

const char* verify_status_name(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kPass: return "pass";
    case VerifyStatus::kFail: return "FAIL";
    case VerifyStatus::kMissingGolden: return "MISSING GOLDEN";
    case VerifyStatus::kOrphanGolden: return "ORPHAN GOLDEN";
    case VerifyStatus::kError: return "ERROR";
    case VerifyStatus::kUpdated: return "updated";
  }
  return "?";
}

namespace {

std::string digest_string(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// -- ULP distance -----------------------------------------------------------

// Map a double onto the integer line so that adjacent representable values
// are adjacent integers (the usual ordered-bits transform; -0.0 and +0.0
// both map to 0).
std::int64_t ordered_bits(double value) {
  std::int64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

std::int64_t ulp_distance(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) return -1;
  const std::int64_t oa = ordered_bits(a);
  const std::int64_t ob = ordered_bits(b);
  const std::uint64_t diff = oa > ob
                                 ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                                 : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return diff > kMax ? std::numeric_limits<std::int64_t>::max()
                     : static_cast<std::int64_t>(diff);
}

// -- canonical observation --------------------------------------------------

// The run.* wall-clock and memory gauges measure the host, not the model;
// everything else the engine collects is a pure function of the scenario.
bool deterministic_metric(const std::string& name) {
  return name != "run.wall_seconds" && name != "run.events_per_sec" &&
         name != "run.event_loop_seconds" && name != "run.events_executed_per_sec" &&
         name != "run.peak_rss_bytes";
}

void write_metrics_observation(obs::JsonWriter& json,
                               const obs::MetricsRegistry& metrics, double sim_now) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, count] : metrics.counters()) json.key(name).value(count);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : metrics.gauges()) {
    if (deterministic_metric(name)) json.key(name).value(value);
  }
  json.end_object();
  json.key("series").begin_object();
  for (const auto& [name, stat] : metrics.all_series()) {
    json.key(name).begin_object();
    const bool observed = std::isfinite(stat.min());
    json.key("mean").value(observed ? stat.time_average(sim_now) : 0.0);
    json.key("min").value(observed ? stat.min() : 0.0);
    json.key("max").value(observed ? stat.max() : 0.0);
    json.key("last").value(stat.current_value());
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

// The deterministic slice of a SimulationResult: the manifest's result
// object plus the simulation clock and event count (wall_seconds stays out).
void write_result_observation(obs::JsonWriter& json, const SimulationResult& result) {
  json.key("result");
  write_result_json(json, result);
  json.key("end_time").value(result.end_time);
  json.key("events_executed").value(result.events_executed);
}

void write_point_observation(obs::JsonWriter& json, const ScenarioSpec& spec) {
  MulticlusterSimulation simulation(to_simulation_config(spec));
  obs::SwfTraceBuilder builder;
  obs::MetricsRegistry metrics;
  simulation.set_trace_sink(&builder);
  simulation.set_metrics(&metrics);
  const SimulationResult result = simulation.run();

  // Digest the SWF record stream exactly as `mcsim run --trace-out`
  // writes it, minus the header comments (which carry provenance).
  std::ostringstream swf;
  write_swf(swf, builder.trace());

  write_result_observation(json, result);
  json.key("trace").begin_object();
  json.key("records")
      .value(static_cast<std::uint64_t>(builder.trace().records.size()));
  json.key("swf_digest").value(digest_string(fnv1a64(swf.str())));
  json.end_object();
  json.key("metrics");
  write_metrics_observation(json, metrics, result.end_time);
}

void write_sweep_observation(obs::JsonWriter& json, const ScenarioSpec& spec) {
  const SweepSeries series = run_sweep(spec);
  json.key("points").begin_array();
  for (const SweepPoint& point : series.points) {
    json.begin_object();
    json.key("utilization").value(point.target_gross_utilization);
    write_result_observation(json, point.result);
    json.end_object();
  }
  json.end_array();
  json.key("max_stable_utilization").value(series.max_stable_utilization());
}

void write_saturation_observation(obs::JsonWriter& json, const ScenarioSpec& spec) {
  const SimulationResult result = run_simulation(to_simulation_config(spec));
  json.key("maximal_gross_utilization").value(result.busy_fraction);
  json.key("maximal_net_utilization").value(result.carried_net_utilization);
  json.key("completions").value(result.completed_jobs);
  json.key("end_time").value(result.end_time);
}

void write_replications_observation(obs::JsonWriter& json, const ScenarioSpec& spec) {
  const ReplicationResult result = run_replications(spec);
  json.key("replication_means").begin_array();
  for (const double mean : result.replication_means) json.value(mean);
  json.end_array();
  json.key("unstable_replications")
      .value(static_cast<std::uint64_t>(result.unstable_replications));
  json.key("ci95").begin_object();
  json.key("mean").value(result.response_ci.mean);
  json.key("halfwidth").value(result.response_ci.halfwidth);
  json.end_object();
  json.key("mean_busy_fraction").value(result.mean_busy_fraction);
}

}  // namespace

std::string canonical_observation(const ScenarioSpec& spec) {
  // Results are parallelism-invariant (exp_runner_test pins this), so run
  // serially: verify parallelises across scenarios, not inside one.
  ScenarioSpec serial = spec;
  serial.parallelism = 1;
  validate(serial);

  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("mode").value(run_mode_name(serial.mode));
  switch (serial.mode) {
    case RunMode::kPoint: write_point_observation(json, serial); break;
    case RunMode::kSweep: write_sweep_observation(json, serial); break;
    case RunMode::kSaturation: write_saturation_observation(json, serial); break;
    case RunMode::kReplications: write_replications_observation(json, serial); break;
  }
  json.end_object();
  out << '\n';
  return out.str();
}

// -- flatten + digest -------------------------------------------------------

namespace {

void flatten_into(const obs::JsonValue& value, std::string& path, std::string& out) {
  switch (value.kind()) {
    case obs::JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        const std::size_t mark = path.size();
        if (!path.empty()) path += '.';
        path += key;
        flatten_into(member, path, out);
        path.resize(mark);
      }
      return;
    case obs::JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < value.size(); ++i) {
        const std::size_t mark = path.size();
        path += '[';
        path += std::to_string(i);
        path += ']';
        flatten_into(value.at(i), path, out);
        path.resize(mark);
      }
      return;
    case obs::JsonValue::Kind::kNumber:
      out += path;
      out += '=';
      out += value.number_text();
      out += '\n';
      return;
    case obs::JsonValue::Kind::kString:
      out += path;
      out += "=\"";
      out += obs::json_escape(value.as_string());
      out += "\"\n";
      return;
    case obs::JsonValue::Kind::kBool:
      out += path;
      out += value.as_bool() ? "=true\n" : "=false\n";
      return;
    case obs::JsonValue::Kind::kNull:
      out += path;
      out += "=null\n";
      return;
  }
}

}  // namespace

std::string flatten_observation(const obs::JsonValue& observation) {
  std::string path;
  std::string out;
  flatten_into(observation, path, out);
  return out;
}

std::string observation_digest(const obs::JsonValue& observation) {
  return digest_string(fnv1a64(flatten_observation(observation)));
}

std::string manifest_observation(const obs::JsonValue& manifest) {
  const obs::JsonValue* schema =
      manifest.is_object() ? manifest.find("schema") : nullptr;
  MCSIM_REQUIRE(schema != nullptr && schema->is_string() &&
                    schema->as_string() == "mcsim-run-manifest",
                "manifest observation: document is not a run manifest");
  const obs::JsonValue* config = manifest.find("config");
  const obs::JsonValue* result = manifest.find("result");
  MCSIM_REQUIRE(config != nullptr && result != nullptr,
                "manifest observation: manifest lacks config/result objects");
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("config");
  write_parsed_json(json, *config);
  json.key("result");
  write_parsed_json(json, *result);
  if (const obs::JsonValue* scenario = manifest.find("scenario")) {
    json.key("scenario");
    write_parsed_json(json, *scenario);
  }
  json.end_object();
  return out.str();
}

// -- comparison -------------------------------------------------------------

namespace {

const char* kind_name(obs::JsonValue::Kind kind) {
  switch (kind) {
    case obs::JsonValue::Kind::kNull: return "null";
    case obs::JsonValue::Kind::kBool: return "bool";
    case obs::JsonValue::Kind::kNumber: return "number";
    case obs::JsonValue::Kind::kString: return "string";
    case obs::JsonValue::Kind::kArray: return "array";
    case obs::JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

bool diverge(CompareOutcome& outcome, const std::string& path, std::string expected,
             std::string got, std::int64_t ulp = -1) {
  outcome.match = false;
  outcome.first = Divergence{path, std::move(expected), std::move(got), ulp};
  return false;
}

bool numbers_match(const obs::JsonValue& expected, const obs::JsonValue& got,
                   const GoldenOptions& options, const std::string& path,
                   CompareOutcome& outcome) {
  if (expected.number_text() == got.number_text()) return true;
  const double e = expected.as_double();
  const double g = got.as_double();
  const std::int64_t ulp = ulp_distance(e, g);
  switch (options.mode) {
    case CompareMode::kBitExact: {
      std::uint64_t eb = 0;
      std::uint64_t gb = 0;
      std::memcpy(&eb, &e, sizeof eb);
      std::memcpy(&gb, &g, sizeof gb);
      if (eb == gb) return true;  // different spelling, identical bits
      break;
    }
    case CompareMode::kStatistical: {
      const double scale = std::max(std::abs(e), std::abs(g));
      if (std::isfinite(e) && std::isfinite(g) &&
          std::abs(e - g) <= options.abs_tol + options.rel_tol * scale) {
        return true;
      }
      break;
    }
  }
  return diverge(outcome, path, expected.number_text(), got.number_text(), ulp);
}

bool compare_value(const obs::JsonValue& expected, const obs::JsonValue& got,
                   const GoldenOptions& options, std::string& path,
                   CompareOutcome& outcome) {
  if (expected.kind() != got.kind()) {
    return diverge(outcome, path, kind_name(expected.kind()), kind_name(got.kind()));
  }
  switch (expected.kind()) {
    case obs::JsonValue::Kind::kObject: {
      for (const auto& [key, member] : expected.members()) {
        const std::size_t mark = path.size();
        if (!path.empty()) path += '.';
        path += key;
        const obs::JsonValue* other = got.find(key);
        if (other == nullptr) {
          return diverge(outcome, path, kind_name(member.kind()), "<missing key>");
        }
        if (!compare_value(member, *other, options, path, outcome)) return false;
        path.resize(mark);
      }
      for (const auto& [key, member] : got.members()) {
        if (expected.find(key) == nullptr) {
          const std::string extra = path.empty() ? key : path + '.' + key;
          return diverge(outcome, extra, "<missing key>", kind_name(member.kind()));
        }
      }
      return true;
    }
    case obs::JsonValue::Kind::kArray: {
      if (expected.size() != got.size()) {
        return diverge(outcome, path + ".length", std::to_string(expected.size()),
                       std::to_string(got.size()));
      }
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const std::size_t mark = path.size();
        path += '[';
        path += std::to_string(i);
        path += ']';
        if (!compare_value(expected.at(i), got.at(i), options, path, outcome)) {
          return false;
        }
        path.resize(mark);
      }
      return true;
    }
    case obs::JsonValue::Kind::kNumber:
      return numbers_match(expected, got, options, path, outcome);
    case obs::JsonValue::Kind::kString:
      if (expected.as_string() != got.as_string()) {
        return diverge(outcome, path, expected.as_string(), got.as_string());
      }
      return true;
    case obs::JsonValue::Kind::kBool:
      if (expected.as_bool() != got.as_bool()) {
        return diverge(outcome, path, expected.as_bool() ? "true" : "false",
                       got.as_bool() ? "true" : "false");
      }
      return true;
    case obs::JsonValue::Kind::kNull:
      return true;
  }
  return true;
}

}  // namespace

std::string Divergence::describe() const {
  std::string text = path + ": expected " + expected + ", got " + got;
  if (ulp >= 0) text += " (" + std::to_string(ulp) + " ULP)";
  return text;
}

CompareOutcome compare_observations(const obs::JsonValue& expected,
                                    const obs::JsonValue& got,
                                    const GoldenOptions& options) {
  CompareOutcome outcome;
  std::string path;
  compare_value(expected, got, options, path, outcome);
  return outcome;
}

// -- golden documents -------------------------------------------------------

// Re-emit a parsed value through the writer. Integer-formatted numbers go
// out as integers so their text survives verbatim; everything else is a
// double, for which json_double is idempotent — re-serializing our own
// output reproduces it byte-for-byte.
void write_parsed_json(obs::JsonWriter& json, const obs::JsonValue& value) {
  switch (value.kind()) {
    case obs::JsonValue::Kind::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.members()) {
        json.key(key);
        write_parsed_json(json, member);
      }
      json.end_object();
      return;
    case obs::JsonValue::Kind::kArray:
      json.begin_array();
      for (const obs::JsonValue& item : value.items()) write_parsed_json(json, item);
      json.end_array();
      return;
    case obs::JsonValue::Kind::kNumber: {
      const std::string& text = value.number_text();
      if (text.find_first_of(".eE") == std::string::npos) {
        if (!text.empty() && text.front() == '-') {
          json.value(value.as_int());
        } else {
          json.value(value.as_uint());
        }
      } else {
        json.value(value.as_double());
      }
      return;
    }
    case obs::JsonValue::Kind::kString:
      json.value(value.as_string());
      return;
    case obs::JsonValue::Kind::kBool:
      json.value(value.as_bool());
      return;
    case obs::JsonValue::Kind::kNull:
      json.null();
      return;
  }
}

void write_golden_file(std::ostream& out, const ScenarioSpec& spec,
                       const std::string& scenario_file,
                       const std::string& observation_json) {
  const obs::JsonValue observed = obs::parse_json(observation_json);
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("mcsim-golden");
  json.key("schema_version").value(kGoldenSchemaVersion);
  json.key("scenario_file").value(scenario_file);
  json.key("label").value(spec.label());
  json.key("digest").value(observation_digest(observed));
  json.key("provenance").begin_object();
  json.key("git_describe").value(git_describe());
  json.key("compiler").value(MCSIM_COMPILER_INFO);
  json.key("build_type").value(MCSIM_BUILD_TYPE);
  json.key("generated_by").value("mcsim verify --update");
  json.end_object();
  json.key("observed");
  write_parsed_json(json, observed);
  json.end_object();
  out << '\n';
}

std::string golden_path_for(const std::string& golden_dir,
                            const std::string& scenario_file) {
  const std::string stem = fs::path(scenario_file).stem().string();
  return (fs::path(golden_dir) / (stem + ".golden.json")).string();
}

// -- the verify driver ------------------------------------------------------

namespace {

ScenarioVerdict verify_one(const fs::path& scenario_path,
                           const std::string& golden_dir,
                           const VerifyOptions& options) {
  ScenarioVerdict verdict;
  verdict.scenario_file = scenario_path.filename().string();

  ScenarioSpec spec;
  try {
    spec = load_scenario(scenario_path.string());
  } catch (const std::exception& error) {
    verdict.status = VerifyStatus::kError;
    verdict.detail = error.what();
    return verdict;
  }
  verdict.label = spec.label();

  std::string observation;
  try {
    observation = canonical_observation(spec);
  } catch (const std::exception& error) {
    verdict.status = VerifyStatus::kError;
    verdict.detail = error.what();
    return verdict;
  }

  const std::string golden_path =
      golden_path_for(golden_dir, verdict.scenario_file);

  if (options.update) {
    std::ofstream out(golden_path);
    if (!out) {
      verdict.status = VerifyStatus::kError;
      verdict.detail = "cannot open " + golden_path;
      return verdict;
    }
    write_golden_file(out, spec, verdict.scenario_file, observation);
    verdict.status = VerifyStatus::kUpdated;
    verdict.detail = observation_digest(obs::parse_json(observation));
    return verdict;
  }

  if (!fs::exists(golden_path)) {
    verdict.status = VerifyStatus::kMissingGolden;
    verdict.detail = "no golden at " + golden_path + " (run `mcsim verify --update`)";
    return verdict;
  }

  obs::JsonValue document;
  try {
    document = obs::parse_json_file(golden_path);
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
      schema->as_string() != "mcsim-golden" || observed == nullptr ||
      digest == nullptr || !digest->is_string()) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = golden_path + " is not a golden document";
    return verdict;
  }

  const obs::JsonValue got = obs::parse_json(observation);
  const CompareOutcome outcome =
      compare_observations(*observed, got, options.compare);
  if (!outcome.match) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = outcome.first.describe();
    return verdict;
  }
  // The observation matches field for field; check the tamper seal so a
  // hand-edited digest (or a reformatted file) still fails loudly.
  const std::string stored_seal = observation_digest(*observed);
  if (digest->as_string() != stored_seal) {
    verdict.status = VerifyStatus::kFail;
    verdict.detail = "golden digest seal broken: file says " + digest->as_string() +
                     ", content hashes to " + stored_seal +
                     " (regenerate with `mcsim verify --update`)";
    return verdict;
  }
  verdict.status = VerifyStatus::kPass;
  verdict.detail = stored_seal;
  return verdict;
}

}  // namespace

bool VerifyReport::ok() const {
  return std::all_of(verdicts.begin(), verdicts.end(), [](const ScenarioVerdict& v) {
    return v.status == VerifyStatus::kPass || v.status == VerifyStatus::kUpdated;
  });
}

VerifyReport verify_goldens(const std::string& scenario_dir,
                            const std::string& golden_dir,
                            const VerifyOptions& options) {
  MCSIM_REQUIRE(fs::is_directory(scenario_dir),
                "verify: " + scenario_dir + " is not a directory");
  std::vector<fs::path> scenarios;
  for (const auto& entry : fs::directory_iterator(scenario_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      scenarios.push_back(entry.path());
    }
  }
  std::sort(scenarios.begin(), scenarios.end());
  MCSIM_REQUIRE(!scenarios.empty(),
                "verify: no scenario files under " + scenario_dir);
  if (options.update) fs::create_directories(golden_dir);

  Runner runner(options.parallelism);
  VerifyReport report;
  report.verdicts = runner.map(scenarios.size(), [&](std::size_t index) {
    return verify_one(scenarios[index], golden_dir, options);
  });

  // Goldens whose scenario is gone: a stale corpus should not look green.
  if (!options.update && fs::is_directory(golden_dir)) {
    std::vector<std::string> orphans;
    for (const auto& entry : fs::directory_iterator(golden_dir)) {
      const std::string name = entry.path().filename().string();
      constexpr std::string_view kSuffix = ".golden.json";
      if (!entry.is_regular_file() || !name.ends_with(kSuffix)) continue;
      const std::string stem = name.substr(0, name.size() - kSuffix.size());
      const bool paired = std::any_of(
          scenarios.begin(), scenarios.end(),
          [&stem](const fs::path& s) { return s.stem().string() == stem; });
      if (!paired) orphans.push_back(name);
    }
    std::sort(orphans.begin(), orphans.end());
    for (const std::string& name : orphans) {
      ScenarioVerdict verdict;
      verdict.scenario_file = name;
      verdict.status = VerifyStatus::kOrphanGolden;
      verdict.detail = "no scenario named " +
                       name.substr(0, name.size() - std::strlen(".golden.json")) +
                       ".json under " + scenario_dir;
      report.verdicts.push_back(std::move(verdict));
    }
  }
  return report;
}

}  // namespace mcsim::exp
