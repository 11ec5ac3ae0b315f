#include "exp/manifest.hpp"

#include "cluster/placement.hpp"
#include "policy/pipeline.hpp"
#include "policy/scheduler.hpp"
#include "policy/scheduler_factory.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json.hpp"
#include "workload/request.hpp"

#ifndef MCSIM_GIT_DESCRIBE
#define MCSIM_GIT_DESCRIBE "unknown"
#endif

namespace mcsim {

const char* git_describe() { return MCSIM_GIT_DESCRIBE; }

namespace {

void write_stats(obs::JsonWriter& json, const RunningStats& stats) {
  json.begin_object();
  json.key("count").value(stats.count());
  json.key("mean").value(stats.mean());
  json.key("stddev").value(stats.stddev());
  json.key("min").value(stats.min());
  json.key("max").value(stats.max());
  json.end_object();
}

void write_config(obs::JsonWriter& json, const SimulationConfig& config) {
  json.begin_object();
  json.key("policy").value(policy_name(config.policy));
  json.key("cluster_sizes").begin_array();
  for (std::uint32_t size : config.cluster_sizes) {
    json.value(static_cast<std::uint64_t>(size));
  }
  json.end_array();
  if (!config.cluster_speeds.empty()) {
    json.key("cluster_speeds").begin_array();
    for (double speed : config.cluster_speeds) json.value(speed);
    json.end_array();
  }
  const PipelineSpec& pipeline = config.pipeline;
  json.key("placement").value(placement_rule_name(pipeline.placement));
  json.key("backfill").value(backfill_mode_name(pipeline.backfill));
  json.key("discipline").value(queue_discipline_name(pipeline.discipline));
  // The structural stages are recorded only where they differ from the
  // policy's canonical expansion, keeping alias-only manifests
  // byte-identical to pre-pipeline ones.
  const PipelineSpec canonical = expand_policy(config.policy);
  if (pipeline.structure != canonical.structure ||
      pipeline.coallocation != canonical.coallocation) {
    json.key("queue").value(queue_structure_name(pipeline.structure));
    json.key("coallocation").value(coallocation_rule_name(pipeline.coallocation));
  }
  json.key("seed").value(config.seed);
  json.key("total_jobs").value(config.total_jobs);
  json.key("warmup_fraction").value(config.warmup_fraction);
  json.key("workload").begin_object();
  json.key("arrival_rate").value(config.workload.arrival_rate);
  json.key("component_limit")
      .value(static_cast<std::uint64_t>(config.workload.component_limit));
  json.key("num_clusters")
      .value(static_cast<std::uint64_t>(config.workload.num_clusters));
  json.key("extension_factor").value(config.workload.extension_factor);
  json.key("split_jobs").value(config.workload.split_jobs);
  json.key("request_type").value(request_type_name(config.workload.request_type));
  if (!config.workload.queue_weights.empty()) {
    json.key("queue_weights").begin_array();
    for (double weight : config.workload.queue_weights) json.value(weight);
    json.end_array();
  }
  json.end_object();
  json.end_object();
}

}  // namespace

void write_result_json(obs::JsonWriter& json, const SimulationResult& result) {
  json.begin_object();
  json.key("policy").value(result.policy);
  json.key("unstable").value(result.unstable);
  json.key("completed_jobs").value(result.completed_jobs);
  json.key("measured_jobs").value(result.measured_jobs);
  // The headline number. Printed with max_digits10, so parsing it back
  // with strtod recovers the identical double the engine computed — the
  // bit-exact anchor for trace round-trip verification.
  json.key("mean_response").value(result.mean_response());
  json.key("response").begin_object();
  json.key("all");
  write_stats(json, result.response_all);
  json.key("local");
  write_stats(json, result.response_local);
  json.key("global");
  write_stats(json, result.response_global);
  json.key("small");
  write_stats(json, result.response_small);
  json.key("medium");
  write_stats(json, result.response_medium);
  json.key("large");
  write_stats(json, result.response_large);
  json.key("ci95").begin_object();
  json.key("mean").value(result.response_ci.mean);
  json.key("halfwidth").value(result.response_ci.halfwidth);
  json.end_object();
  json.key("p95").value(result.response_p95);
  json.end_object();
  json.key("wait");
  write_stats(json, result.wait_all);
  json.key("slowdown");
  write_stats(json, result.slowdown_all);
  json.key("mean_queue_length").value(result.mean_queue_length);
  json.key("busy_fraction").value(result.busy_fraction);
  json.key("offered_gross_utilization").value(result.offered_gross_utilization);
  json.key("offered_net_utilization").value(result.offered_net_utilization);
  json.key("per_cluster_busy_fraction").begin_array();
  for (double fraction : result.per_cluster_busy_fraction) json.value(fraction);
  json.end_array();
  json.key("final_queue_lengths").begin_array();
  for (std::size_t length : result.final_queue_lengths) {
    json.value(static_cast<std::uint64_t>(length));
  }
  json.end_array();
  json.end_object();
}

void write_run_manifest(std::ostream& out, const SimulationConfig& config,
                        const SimulationResult& result,
                        const obs::MetricsRegistry* metrics, const ManifestInfo& info) {
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("mcsim-run-manifest");
  json.key("schema_version").value(kManifestSchemaVersion);

  json.key("provenance").begin_object();
  json.key("git_describe").value(git_describe());
  if (!info.command_line.empty()) json.key("command_line").value(info.command_line);
  json.key("seed").value(config.seed);
  json.end_object();

  json.key("clocks").begin_object();
  json.key("sim_end_time").value(result.end_time);
  json.key("wall_seconds").value(result.wall_seconds);
  json.key("events_executed").value(result.events_executed);
  json.key("events_per_second")
      .value(result.wall_seconds > 0.0
                 ? static_cast<double>(result.events_executed) / result.wall_seconds
                 : 0.0);
  json.end_object();

  json.key("config");
  write_config(json, config);
  json.key("result");
  write_result_json(json, result);

  if (info.scenario != nullptr) {
    json.key("scenario");
    exp::write_scenario_json(json, *info.scenario);
  }

  if (!info.trace_path.empty() || info.events_recorded > 0) {
    json.key("trace").begin_object();
    if (!info.trace_path.empty()) json.key("path").value(info.trace_path);
    json.key("records").value(info.trace_records);
    json.key("events_recorded").value(info.events_recorded);
    json.key("events_dropped").value(info.events_dropped);
    json.end_object();
  }

  if (metrics != nullptr) {
    json.key("metrics");
    metrics->write_json(json, result.end_time);
  }

  json.end_object();
  out << '\n';
}

}  // namespace mcsim
