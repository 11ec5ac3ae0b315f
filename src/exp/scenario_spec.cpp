#include "exp/scenario_spec.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <ostream>
#include <string>

#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "trace/swf_stream.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim::exp {

const char* run_mode_name(RunMode mode) {
  switch (mode) {
    case RunMode::kPoint: return "point";
    case RunMode::kSweep: return "sweep";
    case RunMode::kSaturation: return "saturation";
    case RunMode::kReplications: return "replications";
  }
  return "?";
}

RunMode parse_run_mode(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "point") return RunMode::kPoint;
  if (lower == "sweep") return RunMode::kSweep;
  if (lower == "saturation") return RunMode::kSaturation;
  if (lower == "replications") return RunMode::kReplications;
  MCSIM_REQUIRE(false, "unknown run mode: " + name +
                           " (expected point, sweep, saturation, or replications)");
  return RunMode::kPoint;
}

namespace {

/// Fraction of completions the constant-backlog estimator discards.
constexpr double kSaturationWarmupFraction = 0.2;

// "none"/"aggressive"/"easy"/"conservative" — backfill_mode_name(kNone)
// prints "fcfs", which is ambiguous with the discipline key in a scenario
// file.
const char* backfill_json_name(BackfillMode mode) {
  switch (mode) {
    case BackfillMode::kNone: return "none";
    case BackfillMode::kAggressive: return "aggressive";
    case BackfillMode::kEasy: return "easy";
    case BackfillMode::kConservative: return "conservative";
  }
  return "?";
}

DiscreteDistribution size_distribution_for(const std::string& model) {
  if (model == "das-s-128") return das_s_128();
  if (model == "das-s-64") return das_s_64();
  MCSIM_REQUIRE(false, "scenario: unknown size_model \"" + model +
                           "\" (expected das-s-128 or das-s-64)");
  return das_s_128();
}

std::vector<std::uint32_t> effective_layout(const ScenarioSpec& spec) {
  if (!spec.cluster_sizes.empty()) return spec.cluster_sizes;
  if (is_single_cluster_policy(spec.policy)) return {das::kTotalProcessors};
  return std::vector<std::uint32_t>(das::kNumClusters, das::kClusterSize);
}

// The one workload-construction path — the bit-identity of CLI flags vs.
// scenario files rests on this.
WorkloadConfig make_workload(const ScenarioSpec& spec, std::size_t num_clusters) {
  const bool single_cluster = is_single_cluster_policy(spec.policy);
  WorkloadConfig workload{
      .size_distribution = size_distribution_for(spec.size_model),
      .service_distribution = das_t_900(),
      .component_limit = spec.component_limit,
      .num_clusters =
          single_cluster ? 1u : static_cast<std::uint32_t>(num_clusters),
      .extension_factor = spec.extension_factor,
      .arrival_rate = 1.0,  // overwritten by the caller
      .queue_weights = {},
      .split_jobs = !single_cluster,
  };
  workload.request_type = spec.request_type;
  if (!single_cluster) {
    if (!spec.queue_weights.empty()) {
      workload.queue_weights = spec.queue_weights;
    } else if (!spec.balanced_queues) {
      workload.queue_weights.assign(das::kUnbalancedWeights.begin(),
                                    das::kUnbalancedWeights.end());
    }
  }
  return workload;
}

}  // namespace

std::string ScenarioSpec::label() const {
  if (!name.empty()) return name;
  std::string label = policy_name(policy);
  if (policy != PolicyKind::kSC) label += " limit=" + std::to_string(component_limit);
  if (is_trace()) {
    // A replay's jobs come from the log, not from a size model or queue
    // weights: name the log.
    label += ' ';
    label += trace_path.substr(trace_path.find_last_of('/') + 1);
  } else {
    if (!balanced_queues) label += " unbalanced";
    label += size_model == "das-s-64" ? " DAS-s-64" : " DAS-s-128";
  }
  if (queue_structure) {
    label += std::string(" ") + queue_structure_short_name(*queue_structure);
  }
  if (coallocation) {
    label += ' ';
    label += coallocation_rule_name(*coallocation);
  }
  if (backfill != BackfillMode::kNone) {
    label += std::string(" ") + backfill_mode_name(backfill);
  }
  if (discipline != QueueDiscipline::kFcfs) {
    label += std::string(" ") + queue_discipline_name(discipline);
  }
  return label;
}

PipelineSpec ScenarioSpec::pipeline() const {
  PipelineSpec spec = expand_policy(policy, placement, backfill, discipline);
  if (queue_structure) spec.structure = *queue_structure;
  if (coallocation) spec.coallocation = *coallocation;
  return spec;
}

std::vector<double> ScenarioSpec::sweep_grid() const {
  if (!utilization_grid.empty()) return utilization_grid;
  return make_sweep_grid(sweep_from, sweep_to, sweep_step);
}

void validate(const ScenarioSpec& spec) {
  size_distribution_for(spec.size_model);  // throws on unknown models
  MCSIM_REQUIRE(spec.component_limit > 0, "scenario: component_limit must be positive");
  MCSIM_REQUIRE(spec.extension_factor >= 1.0,
                "scenario: extension_factor must be >= 1");
  for (std::uint32_t size : spec.cluster_sizes) {
    MCSIM_REQUIRE(size > 0, "scenario: every cluster needs at least one processor");
  }
  const auto layout = effective_layout(spec);
  const bool single_cluster = is_single_cluster_policy(spec.policy);
  if (single_cluster) {
    MCSIM_REQUIRE(layout.size() == 1, "scenario: SC runs on a single cluster");
    MCSIM_REQUIRE(spec.queue_weights.empty(),
                  "scenario: SC has one queue; queue_weights does not apply");
  } else {
    MCSIM_REQUIRE(
        spec.queue_weights.empty() || spec.queue_weights.size() == layout.size(),
        "scenario: queue_weights has " + std::to_string(spec.queue_weights.size()) +
            " entries for " + std::to_string(layout.size()) + " clusters");
    MCSIM_REQUIRE(spec.balanced_queues || !spec.queue_weights.empty() ||
                      layout.size() == das::kNumClusters,
                  "scenario: the derived unbalanced weights are the DAS "
                  "40/20/20/20 split; give explicit queue_weights for a " +
                      std::to_string(layout.size()) + "-cluster system");
  }
  double weight_sum = 0.0;
  for (double weight : spec.queue_weights) {
    MCSIM_REQUIRE(weight >= 0.0, "scenario: queue_weights must be non-negative");
    weight_sum += weight;
  }
  MCSIM_REQUIRE(spec.queue_weights.empty() || weight_sum > 0.0,
                "scenario: queue_weights must not all be zero");
  MCSIM_REQUIRE(
      spec.cluster_speeds.empty() || spec.cluster_speeds.size() == layout.size(),
      "scenario: cluster_speeds has " + std::to_string(spec.cluster_speeds.size()) +
          " entries for " + std::to_string(layout.size()) + " clusters");
  for (double speed : spec.cluster_speeds) {
    MCSIM_REQUIRE(speed > 0.0, "scenario: cluster speeds must be positive");
  }
  // Stage compatibility is the pipeline's own rule set: backfilling needs
  // the single global queue (so LS/LP reject it unless the structure is
  // overridden), a component limit must be >= 1, and so on. Keep the legacy
  // wording for the common case — a policy alias with no overrides asking
  // for backfill — so existing error-message contracts hold.
  const PipelineSpec pipeline = spec.pipeline();
  if (!spec.queue_structure &&
      pipeline.structure != QueueStructure::kSingleGlobal) {
    MCSIM_REQUIRE(spec.backfill == BackfillMode::kNone,
                  "scenario: backfilling applies to the single-queue policies (GS, SC)");
  }
  validate_pipeline(pipeline);
  if (pipeline.coallocation.kind == CoAllocationRule::Kind::kComponentLimit &&
      !spec.is_trace()) {
    // Feasibility: jobs split into more components than the limit must fit
    // whole on one cluster, or they can never start and the run stalls.
    const std::uint32_t max_components = std::min(
        spec.component_limit, static_cast<std::uint32_t>(layout.size()));
    if (pipeline.coallocation.component_limit < max_components) {
      const std::uint32_t max_total = spec.size_model == "das-s-64" ? 64u : 128u;
      const std::uint32_t biggest = *std::max_element(layout.begin(), layout.end());
      MCSIM_REQUIRE(max_total <= biggest,
                    "scenario: coallocation limit-" +
                        std::to_string(pipeline.coallocation.component_limit) +
                        " forces jobs of up to " + std::to_string(max_total) +
                        " processors whole onto one cluster, but the largest "
                        "cluster has " + std::to_string(biggest));
    }
  }
  if (!spec.is_trace()) {
    // Split feasibility: the canonical split of the largest synthetic job
    // must be placeable on an *empty* system — the i-th largest component
    // on the i-th largest cluster (components go to distinct clusters).
    // Otherwise that job can never start and permanently stalls the run at
    // any load (e.g. das-s-128 with limit 16 on 64/32/16/16 splits 128
    // into 32+32+32+32, and the 16-processor clusters never fit a 32).
    const std::uint32_t max_total = spec.size_model == "das-s-64" ? 64u : 128u;
    const std::vector<std::uint32_t> components = split_job(
        max_total, spec.component_limit, static_cast<std::uint32_t>(layout.size()));
    std::vector<std::uint32_t> capacities(layout.begin(), layout.end());
    std::sort(capacities.rbegin(), capacities.rend());
    for (std::size_t i = 0; i < components.size(); ++i) {
      MCSIM_REQUIRE(components[i] <= capacities[i],
                    "scenario: the largest job (" + std::to_string(max_total) +
                        " processors) splits into a " +
                        std::to_string(components[i]) +
                        "-processor component that no remaining cluster can "
                        "hold even when idle — it would stall the run at any "
                        "load (raise component_limit or the cluster sizes)");
    }
  }
  MCSIM_REQUIRE(spec.warmup_fraction >= 0.0 && spec.warmup_fraction < 1.0,
                "scenario: warmup_fraction must be in [0,1)");
  MCSIM_REQUIRE(spec.batch_count > 0, "scenario: batch_count must be positive");
  if (spec.is_trace()) {
    MCSIM_REQUIRE(spec.trace_scale > 0.0,
                  "scenario: trace arrival_scale must be positive");
    MCSIM_REQUIRE(spec.mode == RunMode::kPoint || spec.mode == RunMode::kSweep,
                  "scenario: trace replay supports point and sweep modes only "
                  "(saturation ignores arrival times, and a recorded trace has "
                  "no independent randomness to replicate)");
    MCSIM_REQUIRE(spec.mode != RunMode::kSweep || spec.trace_scale == 1.0,
                  "scenario: a trace sweep derives the arrival scale from each "
                  "target utilization; leave arrival_scale at 1");
    MCSIM_REQUIRE(spec.request_type == RequestType::kUnordered,
                  "scenario: trace replay supports unordered requests only "
                  "(the log does not record per-cluster orderings)");
  } else {
    MCSIM_REQUIRE(spec.trace_lookahead == 0,
                  "scenario: lookahead applies to trace replay only");
  }
  switch (spec.mode) {
    case RunMode::kPoint:
    case RunMode::kReplications:
      MCSIM_REQUIRE(spec.utilization > 0.0,
                    "scenario: utilization must be positive");
      MCSIM_REQUIRE(spec.sim_jobs > 0, "scenario: sim_jobs must be positive");
      if (spec.mode == RunMode::kReplications) {
        MCSIM_REQUIRE(spec.replications > 0,
                      "scenario: replications must be positive");
      }
      break;
    case RunMode::kSweep: {
      const auto grid = spec.sweep_grid();  // throws on a bad step or size
      MCSIM_REQUIRE(!grid.empty(), "scenario: the sweep grid is empty");
      for (double utilization : grid) {
        MCSIM_REQUIRE(utilization > 0.0,
                      "scenario: sweep utilizations must be positive");
      }
      MCSIM_REQUIRE(spec.sim_jobs > 0, "scenario: sim_jobs must be positive");
      break;
    }
    case RunMode::kSaturation:
      MCSIM_REQUIRE(spec.saturation_completions > 0,
                    "scenario: saturation completions must be positive");
      MCSIM_REQUIRE(spec.saturation_backlog > 0,
                    "scenario: saturation backlog must be positive");
      break;
  }
}

SimulationConfig to_simulation_config(const ScenarioSpec& spec) {
  return to_simulation_config(spec, spec.utilization);
}

ResolvedTrace resolve_trace_from_file(const std::string& path) {
  ResolvedTrace resolved;
  resolved.scan = scan_swf_file(path);
  resolved.open_source = [path]() -> std::unique_ptr<TraceRecordSource> {
    return std::make_unique<SwfFileStream>(path);
  };
  return resolved;
}

TraceResolver resolve_trace_once(const ScenarioSpec& spec) {
  if (!spec.is_trace()) return nullptr;
  // A bad spec fails here as to_simulation_config would, before the scan.
  validate(spec);
  const ResolvedTrace resolved = resolve_trace_from_file(spec.trace_path);
  return [resolved](const std::string&) { return resolved; };
}

SimulationConfig to_simulation_config(const ScenarioSpec& spec, double utilization) {
  return to_simulation_config(spec, utilization, nullptr);
}

SimulationConfig to_simulation_config(const ScenarioSpec& spec, double utilization,
                                      const TraceResolver& resolve_trace) {
  validate(spec);
  SimulationConfig config;
  config.policy = spec.policy;
  config.cluster_sizes = effective_layout(spec);
  config.cluster_speeds = spec.cluster_speeds;
  config.workload = make_workload(spec, config.cluster_sizes.size());
  if (spec.is_trace()) {
    // Pre-scan the log in one O(1)-memory streaming pass: it validates
    // every line (including header directives), counts the replayable
    // records, and yields the aggregate facts scale derivation needs —
    // without materialising the records. A custom resolver (the serve
    // layer's warm cache) supplies the scan and the records from memory
    // instead of re-reading the file.
    const ResolvedTrace resolved = resolve_trace ? resolve_trace(spec.trace_path)
                                                 : resolve_trace_from_file(spec.trace_path);
    const SwfScan& scan = resolved.scan;
    MCSIM_REQUIRE(scan.summary.total_records > 0,
                  "scenario: trace " + spec.trace_path +
                      " has no job records (only " +
                      std::to_string(scan.header.comments.size()) +
                      " header/comment line(s) — is this a bare SWF header?)");
    MCSIM_REQUIRE(scan.summary.usable_records > 0,
                  "scenario: trace " + spec.trace_path +
                      " has no replayable records (all " +
                      std::to_string(scan.summary.total_records) +
                      " records are cancelled, zero-length or undated)");
    auto trace = std::make_shared<TraceWorkloadConfig>();
    // The splitting parameters mirror what the synthetic workload would
    // have used, so a trace exported from a run replays with identical
    // component tuples.
    trace->component_limit = config.workload.component_limit;
    trace->num_clusters = config.workload.num_clusters;
    trace->extension_factor = config.workload.extension_factor;
    trace->split_jobs = config.workload.split_jobs;
    trace->source_path = spec.trace_path;
    trace->skipped_records = scan.summary.total_records - scan.summary.usable_records;
    if (spec.trace_lookahead != 0) trace->lookahead_window = spec.trace_lookahead;
    // Each engine opens its own stream on demand and re-sorts through the
    // bounded lookahead window, so peak memory is O(window) however long
    // the log is. The stream factory comes from the resolver: a fresh file
    // reader by default, a cursor over warm in-memory records (in file
    // order) under the experiment daemon.
    trace->open_source = resolved.open_source;
    trace->usable_records = scan.summary.usable_records;
    // Point mode replays at the spec's fixed scale; a sweep re-scales the
    // submit axis per target utilization (the paper's Fig. 3 methodology
    // applied to a recorded log).
    trace->arrival_scale =
        spec.mode == RunMode::kSweep
            ? trace_scale_for_utilization(scan.summary, config.total_processors(),
                                          utilization)
            : spec.trace_scale;
    config.total_jobs = scan.summary.usable_records;
    config.trace_workload = std::move(trace);
  } else if (spec.mode == RunMode::kSaturation) {
    // Constant backlog: no arrival process, so no rate to derive.
    config.total_jobs = spec.saturation_completions;
    config.backlog = spec.saturation_backlog;
  } else {
    config.workload.arrival_rate = config.workload.rate_for_gross_utilization(
        utilization, config.total_processors());
    config.total_jobs = spec.sim_jobs;
  }
  config.pipeline = spec.pipeline();
  config.seed = spec.seed;
  // The constant-backlog estimator keeps its fixed warmup; it does not read
  // run.warmup_fraction.
  config.warmup_fraction =
      spec.mode == RunMode::kSaturation ? kSaturationWarmupFraction : spec.warmup_fraction;
  config.batch_count = spec.batch_count;
  return config;
}

void write_scenario_json(obs::JsonWriter& json, const ScenarioSpec& spec) {
  json.begin_object();
  json.key("schema").value("mcsim-scenario");
  json.key("schema_version").value(ScenarioSpec::kSchemaVersion);
  if (!spec.name.empty()) json.key("name").value(spec.name);

  json.key("system").begin_object();
  if (!spec.cluster_sizes.empty()) {
    json.key("cluster_sizes").begin_array();
    for (std::uint32_t size : spec.cluster_sizes) {
      json.value(static_cast<std::uint64_t>(size));
    }
    json.end_array();
  }
  if (!spec.cluster_speeds.empty()) {
    json.key("cluster_speeds").begin_array();
    for (double speed : spec.cluster_speeds) json.value(speed);
    json.end_array();
  }
  json.end_object();

  json.key("workload").begin_object();
  // Trace keys are only emitted for trace replays, keeping the synthetic
  // output byte-identical to what pre-trace versions wrote (manifests are
  // compared verbatim by the rerun tests).
  if (spec.is_trace()) {
    json.key("type").value("trace");
    json.key("path").value(spec.trace_path);
    json.key("arrival_scale").value(spec.trace_scale);
    // Non-default streaming knobs only, keeping pre-streaming trace
    // manifests byte-identical.
    if (spec.trace_lookahead != 0) {
      json.key("lookahead").value(static_cast<std::uint64_t>(spec.trace_lookahead));
    }
  }
  json.key("size_model").value(spec.size_model);
  json.key("component_limit").value(static_cast<std::uint64_t>(spec.component_limit));
  json.key("extension_factor").value(spec.extension_factor);
  json.key("balanced_queues").value(spec.balanced_queues);
  if (!spec.queue_weights.empty()) {
    json.key("queue_weights").begin_array();
    for (double weight : spec.queue_weights) json.value(weight);
    json.end_array();
  }
  json.key("request_type").value(request_type_name(spec.request_type));
  json.end_object();

  json.key("policy").begin_object();
  json.key("kind").value(policy_name(spec.policy));
  json.key("placement").value(placement_rule_name(spec.placement));
  json.key("backfill").value(backfill_json_name(spec.backfill));
  json.key("discipline").value(queue_discipline_name(spec.discipline));
  // The pipeline object is emitted only for overridden compositions, so
  // alias-only scenario files and manifests stay byte-identical to what
  // pre-pipeline versions wrote.
  if (spec.has_pipeline_override()) {
    json.key("pipeline").begin_object();
    if (spec.queue_structure) {
      json.key("queue").value(queue_structure_name(*spec.queue_structure));
    }
    if (spec.coallocation) {
      json.key("coallocation").value(coallocation_rule_name(*spec.coallocation));
    }
    json.end_object();
  }
  json.end_object();

  json.key("run").begin_object();
  json.key("mode").value(run_mode_name(spec.mode));
  json.key("utilization").value(spec.utilization);
  json.key("sweep").begin_object();
  json.key("from").value(spec.sweep_from);
  json.key("to").value(spec.sweep_to);
  json.key("step").value(spec.sweep_step);
  if (!spec.utilization_grid.empty()) {
    json.key("grid").begin_array();
    for (double utilization : spec.utilization_grid) json.value(utilization);
    json.end_array();
  }
  json.end_object();
  json.key("sim_jobs").value(spec.sim_jobs);
  json.key("replications").value(static_cast<std::uint64_t>(spec.replications));
  json.key("saturation").begin_object();
  json.key("completions").value(spec.saturation_completions);
  json.key("backlog").value(spec.saturation_backlog);
  json.end_object();
  json.key("seed").value(spec.seed);
  json.key("warmup_fraction").value(spec.warmup_fraction);
  json.key("batch_count").value(spec.batch_count);
  json.key("parallelism").value(static_cast<std::uint64_t>(spec.parallelism));
  json.end_object();

  json.end_object();
}

void write_scenario_file(std::ostream& out, const ScenarioSpec& spec) {
  obs::JsonWriter json(out);
  write_scenario_json(json, spec);
  out << '\n';
}

namespace {

/// An unsigned value that must fit 32 bits; `key` names it in the error,
/// so an oversized value fails instead of wrapping modulo 2^32.
std::uint32_t read_u32(const obs::JsonValue& value, const char* key) {
  const std::uint64_t wide = value.as_uint();
  MCSIM_REQUIRE(wide <= std::numeric_limits<std::uint32_t>::max(),
                std::string("scenario: ") + key + " = " + std::to_string(wide) +
                    " exceeds the largest allowed value " +
                    std::to_string(std::numeric_limits<std::uint32_t>::max()));
  return static_cast<std::uint32_t>(wide);
}

std::vector<std::uint32_t> read_u32_array(const obs::JsonValue& value, const char* key) {
  std::vector<std::uint32_t> out;
  out.reserve(value.items().size());
  for (const auto& item : value.items()) out.push_back(read_u32(item, key));
  return out;
}

std::vector<double> read_double_array(const obs::JsonValue& value) {
  std::vector<double> out;
  out.reserve(value.items().size());
  for (const auto& item : value.items()) out.push_back(item.as_double());
  return out;
}

void read_system(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "cluster_sizes") {
      spec.cluster_sizes = read_u32_array(v, "system.cluster_sizes");
    } else if (key == "cluster_speeds") {
      spec.cluster_speeds = read_double_array(v);
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown system key \"" + key + "\"");
    }
  }
}

void read_workload(const obs::JsonValue& value, ScenarioSpec& spec) {
  std::string workload_type;
  for (const auto& [key, v] : value.members()) {
    if (key == "type") {
      workload_type = to_lower(v.as_string());
      MCSIM_REQUIRE(workload_type == "synthetic" || workload_type == "trace",
                    "scenario: unknown workload type \"" + v.as_string() +
                        "\" (expected synthetic or trace)");
    } else if (key == "path") {
      spec.trace_path = v.as_string();
    } else if (key == "arrival_scale") {
      spec.trace_scale = v.as_double();
    } else if (key == "lookahead") {
      spec.trace_lookahead = read_u32(v, "workload.lookahead");
    } else if (key == "size_model") {
      spec.size_model = v.as_string();
    } else if (key == "component_limit") {
      spec.component_limit = read_u32(v, "workload.component_limit");
    } else if (key == "extension_factor") {
      spec.extension_factor = v.as_double();
    } else if (key == "balanced_queues") {
      spec.balanced_queues = v.as_bool();
    } else if (key == "queue_weights") {
      spec.queue_weights = read_double_array(v);
    } else if (key == "request_type") {
      spec.request_type = parse_request_type(v.as_string());
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown workload key \"" + key + "\"");
    }
  }
  // `type` may be omitted (presence of `path` decides), but when given it
  // must agree with the rest of the object.
  MCSIM_REQUIRE(workload_type != "trace" || !spec.trace_path.empty(),
                "scenario: workload type \"trace\" needs a path");
  MCSIM_REQUIRE(workload_type != "synthetic" || spec.trace_path.empty(),
                "scenario: workload has a trace path but type \"synthetic\"");
}

// `policy.pipeline`: the explicit four-stage composition. The queue and
// coallocation keys are structural overrides; discipline/backfill/placement
// name the same stages as the policy-level keys and simply assign them, so
// a file may spell the whole pipeline in one object.
void read_pipeline(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "queue") {
      spec.queue_structure = parse_queue_structure(v.as_string());
    } else if (key == "coallocation") {
      spec.coallocation = parse_coallocation_rule(v.as_string());
    } else if (key == "discipline") {
      spec.discipline = parse_queue_discipline(v.as_string());
    } else if (key == "backfill") {
      spec.backfill = parse_backfill_mode(v.as_string());
    } else if (key == "placement") {
      spec.placement = parse_placement_rule(v.as_string());
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown pipeline key \"" + key + "\"");
    }
  }
}

void read_policy(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "kind") {
      spec.policy = parse_policy_kind(v.as_string());
    } else if (key == "placement") {
      spec.placement = parse_placement_rule(v.as_string());
    } else if (key == "backfill") {
      spec.backfill = parse_backfill_mode(v.as_string());
    } else if (key == "discipline") {
      spec.discipline = parse_queue_discipline(v.as_string());
    } else if (key == "pipeline") {
      read_pipeline(v, spec);
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown policy key \"" + key + "\"");
    }
  }
}

void read_sweep(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "from") {
      spec.sweep_from = v.as_double();
    } else if (key == "to") {
      spec.sweep_to = v.as_double();
    } else if (key == "step") {
      spec.sweep_step = v.as_double();
    } else if (key == "grid") {
      spec.utilization_grid = read_double_array(v);
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown sweep key \"" + key + "\"");
    }
  }
}

void read_saturation(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "completions") {
      spec.saturation_completions = v.as_uint();
    } else if (key == "backlog") {
      spec.saturation_backlog = v.as_uint();
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown saturation key \"" + key + "\"");
    }
  }
}

void read_run(const obs::JsonValue& value, ScenarioSpec& spec) {
  for (const auto& [key, v] : value.members()) {
    if (key == "mode") {
      spec.mode = parse_run_mode(v.as_string());
    } else if (key == "utilization") {
      spec.utilization = v.as_double();
    } else if (key == "sweep") {
      read_sweep(v, spec);
    } else if (key == "sim_jobs") {
      spec.sim_jobs = v.as_uint();
    } else if (key == "replications") {
      spec.replications = read_u32(v, "run.replications");
    } else if (key == "saturation") {
      read_saturation(v, spec);
    } else if (key == "seed") {
      spec.seed = v.as_uint();
    } else if (key == "warmup_fraction") {
      spec.warmup_fraction = v.as_double();
    } else if (key == "batch_count") {
      spec.batch_count = v.as_uint();
    } else if (key == "parallelism") {
      spec.parallelism = read_u32(v, "run.parallelism");
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown run key \"" + key + "\"");
    }
  }
}

}  // namespace

ScenarioSpec scenario_from_json(const obs::JsonValue& value) {
  MCSIM_REQUIRE(value.is_object(), "scenario: expected a JSON object");
  ScenarioSpec spec;
  for (const auto& [key, v] : value.members()) {
    if (key == "schema") {
      MCSIM_REQUIRE(v.as_string() == "mcsim-scenario",
                    "scenario: unexpected schema \"" + v.as_string() + "\"");
    } else if (key == "schema_version") {
      MCSIM_REQUIRE(v.as_int() == ScenarioSpec::kSchemaVersion,
                    "scenario: unsupported schema_version " + v.number_text());
    } else if (key == "name") {
      spec.name = v.as_string();
    } else if (key == "system") {
      read_system(v, spec);
    } else if (key == "workload") {
      read_workload(v, spec);
    } else if (key == "policy") {
      read_policy(v, spec);
    } else if (key == "run") {
      read_run(v, spec);
    } else {
      MCSIM_REQUIRE(false, "scenario: unknown key \"" + key + "\"");
    }
  }
  validate(spec);
  return spec;
}

namespace {
// A scenario file saying `path: "../trace.swf"` means relative to itself,
// not to wherever mcsim happens to be invoked from — the checked-in trace
// scenarios must work from any working directory.
void resolve_trace_path(ScenarioSpec& spec, const std::string& scenario_path) {
  if (spec.trace_path.empty()) return;
  const std::filesystem::path trace(spec.trace_path);
  if (trace.is_absolute()) return;
  spec.trace_path = (std::filesystem::path(scenario_path).parent_path() / trace)
                        .lexically_normal()
                        .generic_string();
}
}  // namespace

ScenarioSpec load_scenario(const std::string& path) {
  const obs::JsonValue document = obs::parse_json_file(path);
  MCSIM_REQUIRE(document.is_object(), "scenario: " + path + " is not a JSON object");
  const obs::JsonValue* schema = document.find("schema");
  ScenarioSpec spec;
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() == "mcsim-run-manifest") {
    // A manifest's scenario is the one the run executed, its trace path
    // already resolved against the directory that run started from: take
    // it verbatim, wherever the manifest was moved since.
    const obs::JsonValue* embedded = document.find("scenario");
    MCSIM_REQUIRE(embedded != nullptr,
                  "scenario: " + path +
                      " is a run manifest without an embedded scenario "
                      "(written before scenario support?)");
    spec = scenario_from_json(*embedded);
  } else {
    spec = scenario_from_json(document);
    resolve_trace_path(spec, path);
  }
  return spec;
}

}  // namespace mcsim::exp
