// mcsim — the unified command-line front end to the library.
//
// Subcommands (first positional argument):
//   run          run a scenario file, a run manifest, or the default scenario
//   verify       check every scenario against its golden record (docs/GOLDEN.md)
//   serve        warm-cache experiment daemon on a Unix socket (docs/SERVING.md)
//   submit       run a scenario on a running serve daemon
//   trace-gen    generate a synthetic DAS1 log (SWF)
//   trace-stats  characterise an SWF trace
//
// Exit codes (regression-tested in tests/util_cli_test.cpp): 0 success,
// 1 runtime failure (a load, run, or verification failed), 2 usage error
// (unknown command/option, missing positional, malformed flag value).
//
// Examples:
//   mcsim run data/scenarios/fig3_gs_limit16.json --metrics-out=run.json
//   mcsim run run.json                        # re-run a manifest bit-exactly
//   mcsim run --policy=LS --utilization=0.55 --limit=16
//   mcsim run --policy=GS --trace-out=run.swf --metrics-out=run.json
//   mcsim run data/scenarios/fig3_sc.json --from=0.3 --to=0.8 --gnuplot=out/
//   mcsim run data/scenarios/fig3_ls_limit16.json --jobs=8   # same output
//   mcsim run data/scenarios/table3_gs_limit16_saturation.json --limit=24
//   mcsim verify data/golden                  # the regression gate CI runs
//   mcsim verify data/golden --update         # re-pin after a reviewed change
//   mcsim run --trace-in=run.swf --policy=GS  # replay an exported schedule
//   mcsim run --trace-in=das1.swf --policy=LS --scale=0.5  # double the load
//   mcsim run data/scenarios/corpus/ctc_style.json  # a sealed archive replay
//   mcsim trace-gen --sim-jobs=30000 --out=das1.swf --sessions
//   mcsim trace-stats das1.swf
//
// `run` builds an exp::ScenarioSpec and executes it through the spec
// executors below, so the same experiment is bit-identical however it was
// described. The base spec is FILE (a scenario file or a run manifest), or
// ScenarioSpec{} without one. Each spec flag (kRunFlags) then overrides the
// one field it names; --trace-in swaps the workload for a recorded SWF log.
// The run mode comes from the base alone, and a flag that mode or the run's
// workload (synthetic or a trace) never reads, spec flag or output, is a
// usage error.
//
// Sweeps and replications fan their independent runs out over --jobs worker
// threads (run.parallelism in the file); results are bit-identical to a
// serial run for every --jobs value.
//
// A point run can export itself through the observability layer
// (docs/TRACING.md): --trace-out writes the realised schedule as an SWF
// trace, --metrics-out writes the JSON run manifest (provenance, config,
// results, collected metrics, and the scenario — which `mcsim run` re-runs),
// --events-out dumps the most recent lifecycle events in the binary ring
// format.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "exp/gnuplot.hpp"
#include "exp/golden.hpp"
#include "exp/manifest.hpp"
#include "exp/replications.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/swf.hpp"
#include "trace/synthetic_log.hpp"
#include "trace/timeline.hpp"
#include "trace/trace_stats.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

namespace {

using namespace mcsim;

/// Errors raised while interpreting command-line flag values (bad enum
/// names, malformed numbers already covered by CliParser) are usage errors
/// — exit code 2 — not runtime failures. The library throws plain
/// std::invalid_argument for both kinds; context decides: inside this
/// wrapper the input came from argv.
template <typename Fn>
auto as_usage(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const CliUsageError&) {
    throw;
  } catch (const std::invalid_argument& error) {
    throw CliUsageError(error.what());
  }
}

// -- the flag → spec translator of `run` -----------------------------------

/// The runs a flag applies to: one bit per exp::RunMode.
constexpr unsigned run_bit(exp::RunMode mode) { return 1u << static_cast<unsigned>(mode); }
constexpr unsigned kPoint = run_bit(exp::RunMode::kPoint);
constexpr unsigned kSweep = run_bit(exp::RunMode::kSweep);
constexpr unsigned kSaturation = run_bit(exp::RunMode::kSaturation);
constexpr unsigned kReplications = run_bit(exp::RunMode::kReplications);
constexpr unsigned kEveryRun = kPoint | kSweep | kSaturation | kReplications;
/// The workloads a flag applies to.
constexpr unsigned kSynthetic = 1u;
constexpr unsigned kTrace = 2u;

/// A flag a run reads: one that sets a ScenarioSpec field, or (no `set`)
/// an output the run writes. It has no default, so an absent spec flag
/// keeps the base spec's value.
struct RunFlag {
  const char* name;
  const char* help;
  unsigned runs;  ///< the runs that read it
  void (*set)(const CliParser& parser, const char* name, exp::ScenarioSpec& spec);
  bool presence = false;  ///< a flag without a value (add_flag)
  unsigned workloads = kSynthetic | kTrace;  ///< the workloads whose runs read it
};

constexpr RunFlag kRunFlags[] = {
    {"policy", "GS, LS, LP or SC", kEveryRun,
     [](auto& p, auto n, auto& s) { s.policy = parse_policy_kind(p.get(n)); }},
    {"limit", "job-component-size limit (16, 24, 32, ...)", kEveryRun,
     [](auto& p, auto n, auto& s) { s.component_limit = p.get_u32(n); }},
    {"extension", "wide-area service-time extension factor", kEveryRun,
     [](auto& p, auto n, auto& s) { s.extension_factor = p.get_double(n); }},
    {"placement", "component placement rule: WF, FF, BF or LA", kEveryRun,
     [](auto& p, auto n, auto& s) { s.placement = parse_placement_rule(p.get(n)); }},
    {"backfill", "single-queue backfilling: none, aggressive, easy, conservative",
     kEveryRun, [](auto& p, auto n, auto& s) { s.backfill = parse_backfill_mode(p.get(n)); }},
    {"discipline", "queue order: fcfs, sjf, ljf, smallest-first, largest-first", kEveryRun,
     [](auto& p, auto n, auto& s) { s.discipline = parse_queue_discipline(p.get(n)); }},
    {"queue", "pipeline override: queue structure (single, per-cluster, local-global)",
     kEveryRun,
     [](auto& p, auto n, auto& s) { s.queue_structure = parse_queue_structure(p.get(n)); }},
    {"coallocation", "pipeline override: co-allocation rule (co, no-co, limit-<L>)",
     kEveryRun,
     [](auto& p, auto n, auto& s) { s.coallocation = parse_coallocation_rule(p.get(n)); }},
    {"unbalanced", "one local queue gets 40% of local submissions", kEveryRun,
     [](auto&, auto, auto& s) { s.balanced_queues = false; }, true, kSynthetic},
    {"das64", "cap total job sizes at 64 (DAS-s-64)", kEveryRun,
     [](auto&, auto, auto& s) { s.size_model = "das-s-64"; }, true, kSynthetic},
    {"seed", "master random seed", kEveryRun,
     [](auto& p, auto n, auto& s) { s.seed = p.get_uint(n); }},
    {"trace-in", "replay this SWF trace instead of the base's workload",
     kPoint | kSweep | kReplications,
     [](auto& p, auto n, auto& s) { s.trace_path = p.get(n); }},
    {"scale",
     "trace replay: multiply every submit time (<1 compresses the trace and raises "
     "the offered load; a sweep derives its own)",
     kPoint | kReplications,
     [](auto& p, auto n, auto& s) { s.trace_scale = p.get_double(n); }, false, kTrace},
    {"lookahead",
     "trace replay: bounded re-sort window in records (default 4096; raise for "
     "heavily scrambled logs)",
     kEveryRun, [](auto& p, auto n, auto& s) { s.trace_lookahead = p.get_u32(n); }, false,
     kTrace},
    {"utilization", "target gross utilization", kPoint | kReplications,
     [](auto& p, auto n, auto& s) { s.utilization = p.get_double(n); }, false, kSynthetic},
    {"sim-jobs", "simulated jobs per run", kPoint | kSweep | kReplications,
     [](auto& p, auto n, auto& s) { s.sim_jobs = p.get_uint(n); }, false, kSynthetic},
    // A generated grid replaces the base's explicit one, which would
    // otherwise leave these three unread.
    {"from", "sweep: first target utilization", kSweep,
     [](auto& p, auto n, auto& s) {
       s.sweep_from = p.get_double(n);
       s.utilization_grid.clear();
     }},
    {"to", "sweep: last target utilization", kSweep,
     [](auto& p, auto n, auto& s) {
       s.sweep_to = p.get_double(n);
       s.utilization_grid.clear();
     }},
    {"step", "sweep: grid step", kSweep,
     [](auto& p, auto n, auto& s) {
       s.sweep_step = p.get_double(n);
       s.utilization_grid.clear();
     }},
    {"completions", "saturation: jobs to complete", kSaturation,
     [](auto& p, auto n, auto& s) { s.saturation_completions = p.get_uint(n); }},
    {"reps", "replications: number of replications", kReplications,
     [](auto& p, auto n, auto& s) { s.replications = p.get_u32(n); }},
    {"jobs", "worker threads for sweep points or replications (0 = all cores)",
     kSweep | kReplications,
     [](auto& p, auto n, auto& s) { s.parallelism = p.get_u32(n); }},
    {"trace-out", "point: write the realised schedule as an SWF trace", kPoint, nullptr},
    {"metrics-out", "point: write the JSON run manifest (config, metrics)", kPoint, nullptr},
    {"events-out", "point: dump recent lifecycle events (binary ring)", kPoint, nullptr},
    {"gnuplot", "sweep: write .dat/.gp into this directory (made if missing)", kSweep,
     nullptr},
};

void add_run_flags(CliParser& parser) {
  parser.add_option("ring", "65536", "event ring capacity for --events-out");
  for (const RunFlag& flag : kRunFlags) {
    if (flag.presence) {
      parser.add_flag(flag.name, flag.help);
    } else {
      parser.add_option(flag.name, "", flag.help);
    }
  }
}

/// Override `spec` with every spec flag given. The base's run mode and its
/// workload, synthetic or a trace (the base's or --trace-in's), decide
/// which flags apply: a spec flag or output it never reads is a usage error
/// naming the flag and the run, not a no-op.
void apply_run_flags(const CliParser& parser, exp::ScenarioSpec& spec) {
  const unsigned run = run_bit(spec.mode);
  const bool trace = spec.is_trace() || !parser.get("trace-in").empty();
  const std::string mode = exp::run_mode_name(spec.mode);
  for (const RunFlag& flag : kRunFlags) {
    if (flag.presence ? !parser.get_flag(flag.name) : parser.get(flag.name).empty()) continue;
    if ((flag.runs & run) == 0) {
      throw CliUsageError(std::string("mcsim: option --") + flag.name +
                          " is not read by a " + mode + " run");
    }
    if ((flag.workloads & (trace ? kTrace : kSynthetic)) == 0) {
      throw CliUsageError(std::string("mcsim: option --") + flag.name +
                          " is not read by a " + (trace ? "trace " : "synthetic ") + mode +
                          " run");
    }
    if (flag.set != nullptr) as_usage([&] { flag.set(parser, flag.name, spec); });
  }
}

// argv here is the shifted subcommand view (argv[0] is the subcommand).
std::string join_command_line(int argc, const char* const* argv) {
  std::string joined = "mcsim";
  for (int i = 0; i < argc; ++i) {
    joined += ' ';
    joined += argv[i];
  }
  return joined;
}

/// Run one load point from a spec: simulate, export (trace / manifest /
/// events as requested) and print the summary table. The spec is embedded
/// in the manifest, so any manifest written here can be re-run with
/// `mcsim run`.
int execute_point(const exp::ScenarioSpec& spec, const CliParser& parser,
                  const std::string& command_line) {
  const SimulationConfig config = exp::to_simulation_config(spec);

  const std::string trace_out = parser.get("trace-out");
  const std::string metrics_out = parser.get("metrics-out");
  const std::string events_out = parser.get("events-out");

  MulticlusterSimulation simulation(config);
  // The ring is 2 MiB at the default capacity: build it only when
  // --trace-out or --events-out reads it.
  std::optional<obs::RingRecorder> recorder;
  obs::SwfTraceBuilder builder;
  obs::MetricsRegistry metrics;
  if (!trace_out.empty() || !events_out.empty()) {
    recorder.emplace(parser.get_uint("ring"));
    if (!trace_out.empty()) {
      recorder->add_emitter([&builder](const obs::TraceEvent& event) { builder.record(event); });
    }
    simulation.set_trace_sink(&*recorder);
  }
  if (!metrics_out.empty()) simulation.set_metrics(&metrics);

  const auto result = simulation.run();

  if (!trace_out.empty()) {
    // Records stay in finish order: that is the order the engine folded
    // each response time into its statistics, so a consumer re-reading the
    // file reproduces them bit-exactly (docs/TRACING.md).
    SwfTrace trace = builder.trace();
    trace.header_comments = {
        "mcsim realised schedule (" + spec.label() + ")",
        "Version: " + std::string(git_describe()),
        "Command: " + command_line,
        "Records are in job finish order; wait (field 4) and run (field 5)",
        "reconstruct the engine's response times exactly.",
    };
    write_swf_file(trace_out, trace);
    std::cout << "trace: " << trace.records.size() << " records -> " << trace_out << '\n';
  }
  if (!events_out.empty()) {
    std::ofstream out(events_out, std::ios::binary);
    if (!out) {
      std::cerr << "mcsim: cannot open " << events_out << '\n';
      return 1;
    }
    recorder->write_binary(out);
    std::cout << "events: " << recorder->size() << " of " << recorder->total_recorded()
              << " recorded (" << recorder->dropped() << " dropped) -> " << events_out
              << '\n';
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "mcsim: cannot open " << metrics_out << '\n';
      return 1;
    }
    ManifestInfo info;
    info.command_line = command_line;
    info.trace_path = trace_out;
    info.trace_records = builder.trace().records.size();
    info.events_recorded = recorder ? recorder->total_recorded() : 0;
    info.events_dropped = recorder ? recorder->dropped() : 0;
    info.scenario = &spec;
    write_run_manifest(out, config, result, &metrics, info);
    std::cout << "manifest -> " << metrics_out << '\n';
  }

  TextTable table({"metric", "value"});
  table.add_row({"scenario", spec.label()});
  table.add_row({"status", result.unstable ? "UNSTABLE (beyond saturation)" : "stable"});
  table.add_row({"completed jobs", std::to_string(result.completed_jobs)});
  table.add_row({"mean response (s)", format_double(result.mean_response(), 1)});
  table.add_row({"ci95 halfwidth (s)", format_double(result.response_ci.halfwidth, 1)});
  table.add_row({"p95 response (s)", format_double(result.response_p95, 1)});
  table.add_row({"mean wait (s)", format_double(result.wait_all.mean(), 1)});
  table.add_row({"mean slowdown", format_double(result.slowdown_all.mean(), 2)});
  table.add_row({"mean jobs waiting", format_double(result.mean_queue_length, 2)});
  table.add_row({"offered gross util", format_util(result.offered_gross_utilization)});
  table.add_row({"offered net util", format_util(result.offered_net_utilization)});
  table.add_row({"busy fraction", format_util(result.busy_fraction)});
  if (result.response_local.count() > 0) {
    table.add_row({"local-queue response (s)", format_double(result.response_local.mean(), 1)});
  }
  if (result.response_global.count() > 0) {
    table.add_row(
        {"global-queue response (s)", format_double(result.response_global.mean(), 1)});
  }
  std::cout << table.render();
  return 0;
}

int execute_sweep(const exp::ScenarioSpec& spec, const std::string& gnuplot_dir) {
  // Make the plot directory before the sweep runs, so a path that cannot
  // be one fails in a moment instead of after the whole sweep.
  if (!gnuplot_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(gnuplot_dir, error);
    if (error) {
      std::cerr << "mcsim: --gnuplot: cannot make directory " << gnuplot_dir << ": "
                << error.message() << '\n';
      return kExitUsage;
    }
  }
  const auto series = run_sweep(spec);
  print_panel(std::cout, "sweep: " + spec.label(), {series});
  print_ascii_plot(std::cout, {series});
  if (!gnuplot_dir.empty()) {
    const auto files = write_gnuplot_panel(gnuplot_dir, "mcsim_sweep", spec.label(),
                                           {series});
    std::cout << "gnuplot script: " << files.script_path << '\n';
  }
  return 0;
}

int execute_saturation(const exp::ScenarioSpec& spec) {
  const auto result = run_simulation(exp::to_simulation_config(spec));
  TextTable table({"metric", "value"});
  table.add_row({"scenario", spec.label()});
  table.add_row({"maximal gross utilization", format_util(result.busy_fraction)});
  table.add_row({"maximal net utilization", format_util(result.carried_net_utilization)});
  table.add_row({"completions", std::to_string(result.completed_jobs)});
  std::cout << table.render();
  return 0;
}

int execute_replications(const exp::ScenarioSpec& spec) {
  const auto result = run_replications(spec);
  TextTable table({"metric", "value"});
  table.add_row({"scenario", spec.label()});
  table.add_row({"stable replications", std::to_string(result.stable_replications())});
  table.add_row({"unstable replications", std::to_string(result.unstable_replications)});
  table.add_row({"mean response (s)", format_double(result.response_ci.mean, 1)});
  table.add_row({"ci95 halfwidth (s)", format_double(result.response_ci.halfwidth, 1)});
  table.add_row({"mean busy fraction", format_util(result.mean_busy_fraction)});
  std::cout << table.render();
  return 0;
}

/// Dispatch a spec to the executor for its run mode.
int execute_spec(const exp::ScenarioSpec& spec, const CliParser& parser,
                 const std::string& command_line) {
  switch (spec.mode) {
    case exp::RunMode::kPoint:
      return execute_point(spec, parser, command_line);
    case exp::RunMode::kSweep:
      return execute_sweep(spec, parser.get("gnuplot"));
    case exp::RunMode::kSaturation:
      return execute_saturation(spec);
    case exp::RunMode::kReplications:
      return execute_replications(spec);
  }
  return 1;
}

int cmd_run(int argc, const char* const* argv) {
  CliParser parser(
      "mcsim run [FILE]: run a scenario file or a run manifest, or without FILE "
      "the default scenario; each flag overrides the one field it names "
      "(docs/SCENARIOS.md)");
  add_run_flags(parser);
  if (!parser.parse(argc, argv)) return 0;
  if (parser.positional().size() > 1) {
    std::cerr << "usage: mcsim run [FILE] [options]\n";
    return kExitUsage;
  }
  exp::ScenarioSpec spec = parser.positional().empty()
                               ? exp::ScenarioSpec{}
                               : exp::load_scenario(parser.positional().front());
  apply_run_flags(parser, spec);
  return execute_spec(spec, parser, join_command_line(argc, argv));
}

int cmd_verify(int argc, const char* const* argv) {
  CliParser parser(
      "mcsim verify: run every checked-in scenario and compare against its "
      "golden record (docs/GOLDEN.md)");
  parser.add_option("scenarios", "data/scenarios", "directory of scenario files");
  parser.add_option("mode", "bit-exact", "comparison tier: bit-exact or statistical");
  parser.add_option("rel-tol", "1e-6", "statistical tier: relative tolerance");
  parser.add_option("abs-tol", "1e-9", "statistical tier: absolute tolerance");
  parser.add_option("jobs", std::to_string(exp::Runner::default_jobs()),
                    "parallel scenario runs (worker threads)");
  parser.add_flag("update", "regenerate the goldens from the current build");
  if (!parser.parse(argc, argv)) return 0;

  const std::string golden_dir =
      parser.positional().empty() ? "data/golden" : parser.positional().front();
  exp::VerifyOptions options;
  options.compare.mode =
      as_usage([&] { return exp::parse_compare_mode(parser.get("mode")); });
  options.compare.rel_tol = parser.get_double("rel-tol");
  options.compare.abs_tol = parser.get_double("abs-tol");
  options.parallelism = parser.get_u32("jobs");
  options.update = parser.get_flag("update");

  const exp::VerifyReport report =
      exp::verify_goldens(parser.get("scenarios"), golden_dir, options);

  TextTable table({"scenario", "status", "detail"});
  std::size_t passed = 0;
  for (const exp::ScenarioVerdict& verdict : report.verdicts) {
    table.add_row({verdict.scenario_file, exp::verify_status_name(verdict.status),
                   verdict.detail});
    if (verdict.status == exp::VerifyStatus::kPass ||
        verdict.status == exp::VerifyStatus::kUpdated) {
      ++passed;
    }
  }
  std::cout << table.render();
  std::cout << (options.update ? "updated " : "verified ") << passed << '/'
            << report.verdicts.size() << " scenarios ("
            << exp::compare_mode_name(options.compare.mode) << " tier) against "
            << golden_dir << '\n';
  if (!report.ok()) {
    std::cerr << "mcsim verify: FAILED — " << (report.verdicts.size() - passed)
              << " scenario(s) diverge from their goldens\n";
    return 1;
  }
  return 0;
}

int cmd_trace_gen(int argc, const char* const* argv) {
  CliParser parser("mcsim trace-gen: synthesise a DAS1-like workload log (SWF)");
  // --sim-jobs, not --jobs: everywhere in the suite --jobs means worker
  // threads and --sim-jobs means workload length (see README, CLI reference).
  parser.add_option("sim-jobs", "30000", "jobs in the log");
  parser.add_option("days", "90", "log span in days");
  parser.add_option("out", "das1_synthetic.swf", "output SWF path");
  parser.add_option("seed", "20031128", "random seed");
  parser.add_flag("sessions", "use the per-user session arrival model");
  if (!parser.parse(argc, argv)) return 0;

  SyntheticLogConfig config;
  config.num_jobs = parser.get_uint("sim-jobs");
  config.duration_seconds = parser.get_double("days") * 86400.0;
  config.seed = parser.get_uint("seed");
  config.user_sessions = parser.get_flag("sessions");
  const auto trace = generate_synthetic_das1_log(config);
  write_swf_file(parser.get("out"), trace);
  std::cout << "wrote " << trace.records.size() << " jobs to " << parser.get("out") << '\n';
  return 0;
}

int cmd_trace_stats(int argc, const char* const* argv) {
  CliParser parser("mcsim trace-stats: characterise an SWF trace");
  parser.add_option("capacity", "128", "machine size for the utilization timeline");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.positional().empty()) {
    std::cerr << "usage: mcsim trace-stats <trace.swf>\n";
    return kExitUsage;
  }
  const std::uint32_t capacity = parser.get_u32("capacity");
  const auto trace = read_swf_file(parser.positional().front());
  const auto summary = summarize_trace(trace.records);
  TextTable table({"statistic", "value"});
  table.add_row({"jobs", std::to_string(summary.job_count)});
  table.add_row({"users", std::to_string(summary.user_count)});
  table.add_row({"span (days)", format_double(summary.duration / 86400.0, 1)});
  table.add_row({"distinct sizes", std::to_string(summary.distinct_sizes)});
  table.add_row({"mean size", format_double(summary.mean_size, 2)});
  table.add_row({"size cv", format_double(summary.size_cv, 2)});
  table.add_row({"power-of-two fraction", format_util(summary.power_of_two_fraction)});
  table.add_row({"mean service (s)", format_double(summary.mean_service, 1)});
  table.add_row({"service cv", format_double(summary.service_cv, 2)});
  table.add_row({"under 15 min", format_util(summary.fraction_under_15min)});
  std::cout << table.render() << '\n';
  std::cout << render_utilization_timeline(trace.records, capacity);
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  CliParser parser(
      "mcsim serve: warm-cache experiment daemon on a local Unix socket "
      "(docs/SERVING.md)");
  parser.add_option("socket", "mcsim.sock", "Unix-domain socket path to listen on");
  parser.add_option("jobs", "1", "concurrent served runs (0 = all cores)");
  parser.add_option("cache-mb", "256",
                    "trace-cache byte budget in MiB (0 disables retention)");
  parser.add_option("sandbox", ".",
                    "directory submitted trace paths must stay under "
                    "(out-of-tree paths are rejected, never opened)");
  if (!parser.parse(argc, argv)) return 0;

  serve::ServerConfig config;
  config.socket_path = parser.get("socket");
  config.jobs = parser.get_u32("jobs");
  // MiB to bytes: a budget that would not fit 64 bits is a usage error.
  constexpr std::uint64_t kMaxCacheMb = std::numeric_limits<std::uint64_t>::max() >> 20;
  config.cache_bytes = parser.get_uint("cache-mb", kMaxCacheMb) << 20;
  config.sandbox_root = parser.get("sandbox");
  serve::Server server(config);
  // Blocks until a `shutdown` request or SIGTERM/SIGINT drains the queue;
  // a clean drain exits 0.
  return server.serve();
}

int cmd_submit(int argc, const char* const* argv) {
  CliParser parser(
      "mcsim submit: run a scenario on a running `mcsim serve` daemon");
  parser.add_option("socket", "mcsim.sock", "daemon socket path");
  parser.add_option("name", "", "label for the run (default: the spec's label)");
  parser.add_option("out", "",
                    "write the served run manifest here (byte-identical to the "
                    "document the server rendered)");
  parser.add_option("timeout", "600", "seconds to wait for each response");
  parser.add_flag("no-wait", "print the run id and exit without waiting");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.positional().empty()) {
    std::cerr << "usage: mcsim submit <scenario.json> [options]\n";
    return kExitUsage;
  }

  // Read the file raw — no path resolution. A trace path inside the
  // scenario travels verbatim and is resolved by the SERVER against its
  // sandbox root, so the same scenario file means the same thing to every
  // client wherever it runs (docs/SERVING.md, "The sandbox").
  // Seconds to milliseconds in an int: a longer timeout is a usage error.
  const std::uint64_t timeout_s =
      parser.get_uint("timeout", std::numeric_limits<int>::max() / 1000);
  const std::string path = parser.positional().front();
  obs::JsonValue document = obs::parse_json_file(path);
  const obs::JsonValue* spec = &document;
  if (document.is_object() && document.find("schema") != nullptr &&
      document.at("schema").is_string() &&
      document.at("schema").as_string() == "mcsim-run-manifest") {
    spec = document.find("scenario");
    if (spec == nullptr) {
      std::cerr << "mcsim submit: " << path << " has no embedded scenario\n";
      return 1;
    }
  }

  serve::ServeClient client(parser.get("socket"));
  client.set_timeout_ms(static_cast<int>(timeout_s) * 1000);
  const std::uint64_t id =
      client.submit(serve::compact_json(*spec), parser.get("name"));
  std::cout << "submitted run " << id << '\n';
  if (parser.get_flag("no-wait")) return 0;

  const obs::JsonValue response = client.await_result(id);
  const obs::JsonValue& manifest = response.at("manifest");
  const std::string out_path = parser.get("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "mcsim: cannot open " << out_path << '\n';
      return 1;
    }
    // write_parsed_json reproduces our own serialization byte-for-byte, so
    // this file equals the manifest an offline `mcsim run --metrics-out`
    // writes, up to the wall-clock provenance (docs/SERVING.md).
    obs::JsonWriter json(out);
    exp::write_parsed_json(json, manifest);
    out << '\n';
    std::cout << "manifest -> " << out_path << '\n';
  }
  const obs::JsonValue* result = manifest.find("result");
  const obs::JsonValue* mean =
      result != nullptr ? result->find("mean_response") : nullptr;
  std::cout << "run " << id << " done";
  if (mean != nullptr) std::cout << ": mean response " << mean->number_text() << " s";
  std::cout << '\n';
  return 0;
}

void print_usage() {
  std::cout
      << "mcsim — trace-based multicluster co-allocation simulator (HPDC'03 repro)\n\n"
         "usage: mcsim <command> [options]   (each command supports --help)\n\n"
         "commands:\n"
         "  run [FILE]    run a scenario file or a run manifest (docs/SCENARIOS.md);\n"
         "                without FILE the default scenario, a point run. Flags\n"
         "                override the fields they name; the run mode (point,\n"
         "                sweep, saturation, replications) comes from FILE;\n"
         "                --trace-in=LOG replays a recorded SWF trace\n"
         "  verify        check every scenario against its golden record\n"
         "  serve         warm-cache experiment daemon (docs/SERVING.md)\n"
         "  submit        run a scenario on a running serve daemon\n"
         "  trace-gen     generate a synthetic DAS1 log (SWF)\n"
         "  trace-stats   characterise an SWF trace\n\n"
         "exit codes: 0 success, 1 runtime failure, 2 usage error\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return kExitUsage;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "run") return cmd_run(sub_argc, sub_argv);
    if (command == "verify") return cmd_verify(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "submit") return cmd_submit(sub_argc, sub_argv);
    if (command == "trace-gen") return cmd_trace_gen(sub_argc, sub_argv);
    if (command == "trace-stats") return cmd_trace_stats(sub_argc, sub_argv);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
  } catch (const serve::ServeError& error) {
    // A structured server-side refusal: surface the machine-readable code
    // alongside the message. Always a runtime failure for the client.
    std::cerr << "mcsim: server error [" << error.code() << "] " << error.what()
              << '\n';
    return kExitRuntime;
  } catch (const std::exception& error) {
    // MCSIM_REQUIRE messages already carry the "mcsim: " prefix.
    const std::string_view what = error.what();
    std::cerr << (what.starts_with("mcsim: ") ? "" : "mcsim: ") << what << '\n';
    // CliUsageError -> 2 (bad invocation); everything else -> 1 (the run
    // itself failed). Regression-tested in tests/util_cli_test.cpp.
    return cli_exit_code(error);
  }
  std::cerr << "mcsim: unknown command '" << command << "'\n\n";
  print_usage();
  return kExitUsage;
}
