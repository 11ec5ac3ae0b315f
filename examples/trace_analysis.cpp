// The full trace-based pipeline, end to end:
//   1. obtain a workload log (generate the synthetic DAS1 log, or read any
//      SWF file from the Parallel Workloads Archive with --trace=PATH);
//   2. characterise it (the paper's Sect. 2.4 statistics);
//   3. derive the simulation input distributions from it (sizes cut at 64
//      and 128, service times cut at 900 s);
//   4. drive a multicluster simulation with the trace-derived workload.
//
//   $ ./examples/trace_analysis
//   $ ./examples/trace_analysis --trace=mylog.swf --utilization=0.6
#include <algorithm>
#include <iostream>
#include <memory>

#include "core/engine.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "trace/empirical.hpp"
#include "trace/swf.hpp"
#include "trace/synthetic_log.hpp"
#include "trace/timeline.hpp"
#include "trace/trace_stats.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  CliParser parser("Analyse a workload trace and simulate from its distributions");
  parser.add_option("trace", "", "SWF trace to read (empty: generate the synthetic DAS1 log)");
  parser.add_option("save", "", "write the (synthetic) trace to this SWF path");
  parser.add_option("jobs-in-log", "30000", "synthetic log size");
  parser.add_option("utilization", "0.5", "target gross utilization for the simulation");
  parser.add_option("limit", "16", "job-component-size limit");
  parser.add_option("sim-jobs", "20000", "simulated jobs");
  parser.add_option("seed", "3", "master random seed");
  parser.add_option("export", "", "write the SIMULATED schedule to this SWF path");
  parser.add_flag("sessions", "generate the synthetic log with the user-session model");
  if (!parser.parse(argc, argv)) return 0;

  // 1. Obtain the log.
  SwfTrace trace;
  if (const std::string path = parser.get("trace"); !path.empty()) {
    trace = read_swf_file(path);
    std::cout << "read " << trace.records.size() << " jobs from " << path << "\n\n";
  } else {
    SyntheticLogConfig log_config;
    log_config.num_jobs = parser.get_uint("jobs-in-log");
    log_config.seed = parser.get_uint("seed");
    log_config.user_sessions = parser.get_flag("sessions");
    trace = generate_synthetic_das1_log(log_config);
    std::cout << "generated a synthetic DAS1 log with " << trace.records.size()
              << " jobs\n\n";
  }
  if (const std::string save = parser.get("save"); !save.empty()) {
    write_swf_file(save, trace);
    std::cout << "saved trace to " << save << "\n\n";
  }

  // 2. Characterise it.
  const auto summary = summarize_trace(trace.records);
  TextTable stats({"statistic", "value"});
  stats.add_row({"jobs", std::to_string(summary.job_count)});
  stats.add_row({"users", std::to_string(summary.user_count)});
  stats.add_row({"span (days)", format_double(summary.duration / 86400.0, 1)});
  stats.add_row({"distinct job sizes", std::to_string(summary.distinct_sizes)});
  stats.add_row({"mean job size", format_double(summary.mean_size, 2)});
  stats.add_row({"job size cv", format_double(summary.size_cv, 2)});
  stats.add_row({"power-of-two fraction", format_util(summary.power_of_two_fraction)});
  stats.add_row({"mean service (s)", format_double(summary.mean_service, 1)});
  stats.add_row({"service cv", format_double(summary.service_cv, 2)});
  stats.add_row({"under 15 min", format_util(summary.fraction_under_15min)});
  std::cout << stats.render() << '\n';
  std::cout << render_utilization_timeline(trace.records, 128) << '\n';

  // 3. Derive the simulation inputs, exactly as the paper did from the DAS1
  //    log: sizes (full and cut at 64), service times cut at 900 s.
  const auto sizes_128 = empirical_size_distribution(trace.records);
  const auto sizes_64 = empirical_size_distribution_cut(trace.records, 64);
  const auto services = std::make_shared<DiscreteDistribution>(
      empirical_service_distribution(trace.records, 900.0));
  const auto describe = [](const DiscreteDistribution& d) {
    return str_printf("Discrete(%zu values, mean=%.3f, cv=%.3f)", d.support_size(), d.mean(),
                      d.cv());
  };
  std::cout << "derived distributions:\n"
            << "  sizes (full): " << describe(sizes_128) << '\n'
            << "  sizes (cut at 64): " << describe(sizes_64) << '\n'
            << "  service times (cut at 900 s): " << describe(*services) << "\n\n";

  // 4. Simulate LS on the 4x32 multicluster with the trace-derived workload.
  SimulationConfig config;
  config.policy = PolicyKind::kLS;
  config.pipeline = expand_policy(PolicyKind::kLS);
  config.cluster_sizes = {32, 32, 32, 32};
  config.workload.size_distribution = sizes_128;
  config.workload.service_distribution = services;
  config.workload.component_limit = static_cast<std::uint32_t>(parser.get_uint("limit"));
  config.workload.num_clusters = 4;
  config.workload.extension_factor = das::kExtensionFactor;
  config.workload.arrival_rate = config.workload.rate_for_gross_utilization(
      parser.get_double("utilization"), config.total_processors());
  config.total_jobs = parser.get_uint("sim-jobs");
  config.seed = parser.get_uint("seed") + 1;

  // Optionally capture the realised schedule as a trace of its own — the
  // full loop: log in, statistics out, simulation in between. The obs layer
  // does the bookkeeping: a RingRecorder receives every lifecycle event and
  // streams them into an SwfTraceBuilder, which assembles one TraceRecord
  // per completed job (see docs/TRACING.md).
  MulticlusterSimulation simulation(config);
  obs::RingRecorder recorder;
  obs::SwfTraceBuilder builder;
  const bool exporting = !parser.get("export").empty();
  if (exporting) {
    recorder.add_emitter([&builder](const obs::TraceEvent& event) { builder.record(event); });
    simulation.set_trace_sink(&recorder);
  }
  const auto result = simulation.run();
  std::cout << "simulation (LS, 4x32, target gross utilization "
            << format_util(parser.get_double("utilization")) << "):\n"
            << "  mean response " << format_double(result.mean_response(), 1)
            << " s, p95 " << format_double(result.response_p95, 1) << " s, "
            << (result.unstable ? "UNSTABLE" : "stable") << "\n";
  if (exporting) {
    SwfTrace simulated = builder.trace();
    simulated.header_comments = {"Simulated schedule produced by mcsim (LS on 4x32)"};
    std::sort(simulated.records.begin(), simulated.records.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                return a.submit_time < b.submit_time;
              });
    write_swf_file(parser.get("export"), simulated);
    std::cout << "simulated schedule written to " << parser.get("export") << " ("
              << simulated.records.size() << " jobs)\n";
  }
  return 0;
}
