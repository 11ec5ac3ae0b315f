// Shared wiring for the figure/table reproduction harnesses.
//
// Every harness accepts:
//   --jobs=N     parallel simulation runs (default: all hardware threads);
//                results are bit-identical for every N
//   --sim-jobs=N simulated jobs per sweep point (default 20000; the env var
//                MCSIM_BENCH_JOBS overrides the default for the whole suite)
//   --seed=S     master seed (default 20030622 — HPDC'03's opening day)
//   --csv=PATH   also write every point to a CSV file
//   --quick      quarter-size run for smoke testing
// and prints the reproduced table/figure to stdout in the paper's layout.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/gnuplot.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace mcsim::bench {

struct BenchOptions {
  std::uint64_t sim_jobs = 20000;
  std::uint64_t seed = 20030622;
  std::string csv_path;
  std::string gnuplot_dir;
  /// Parallel simulation runs (Runner workers); 0 = all hardware threads.
  unsigned jobs = 0;
  bool quick = false;
};

inline std::optional<BenchOptions> parse_bench_options(
    int argc, const char* const* argv, const std::string& description) {
  CliParser parser(description);
  std::uint64_t default_sim_jobs = 20000;
  if (const char* env = std::getenv("MCSIM_BENCH_JOBS"); env != nullptr) {
    default_sim_jobs = std::strtoull(env, nullptr, 10);
    if (default_sim_jobs == 0) default_sim_jobs = 20000;
  }
  parser.add_option("jobs", std::to_string(exp::Runner::default_jobs()),
                    "parallel simulation runs (worker threads)");
  parser.add_option("sim-jobs", std::to_string(default_sim_jobs),
                    "simulated jobs per sweep point");
  parser.add_option("seed", "20030622", "master random seed");
  parser.add_option("csv", "", "also write results to this CSV file");
  parser.add_option("gnuplot", "", "also write .dat/.gp files to this directory");
  parser.add_option("log", "warn", "log level (debug|info|warn|error|off)");
  parser.add_flag("quick", "quarter-size smoke run");
  if (!parser.parse(argc, argv)) return std::nullopt;
  set_log_level(parse_log_level(parser.get("log")));

  BenchOptions options;
  options.jobs = static_cast<unsigned>(parser.get_uint("jobs"));
  if (options.jobs == 0) options.jobs = exp::Runner::default_jobs();
  options.sim_jobs = parser.get_uint("sim-jobs");
  options.seed = parser.get_uint("seed");
  options.csv_path = parser.get("csv");
  options.gnuplot_dir = parser.get("gnuplot");
  options.quick = parser.get_flag("quick");
  if (options.quick) options.sim_jobs = std::max<std::uint64_t>(2000, options.sim_jobs / 4);
  return options;
}

/// The default utilization grid for the response-time figures.
inline std::vector<double> figure_grid() { return make_sweep_grid(0.30, 0.80, 0.05); }

/// A paper scenario (GS, limit 16, balanced, DAS-s-128) run with the
/// harness's job count and seed; callers set the scenario fields and build
/// each point with exp::to_simulation_config(spec, utilization).
inline exp::ScenarioSpec point_spec(const BenchOptions& options) {
  exp::ScenarioSpec spec;
  spec.sim_jobs = options.sim_jobs;
  spec.seed = options.seed;
  return spec;
}

/// point_spec swept over figure_grid() on the harness's worker threads.
inline exp::ScenarioSpec sweep_spec(const BenchOptions& options) {
  exp::ScenarioSpec spec = point_spec(options);
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = figure_grid();
  spec.parallelism = options.jobs;
  return spec;
}

/// Print a panel and (if requested) append it to the CSV file.
class PanelSink {
 public:
  explicit PanelSink(const BenchOptions& options) : gnuplot_dir_(options.gnuplot_dir) {
    if (!options.csv_path.empty()) {
      csv_.open(options.csv_path);
      if (!csv_.good()) {
        std::cerr << "cannot open CSV path " << options.csv_path << '\n';
      }
    }
  }

  void emit(const std::string& title, const std::vector<SweepSeries>& series,
            bool ascii_plot = true) {
    print_panel(std::cout, title, series);
    if (ascii_plot) print_ascii_plot(std::cout, series);
    std::cout << '\n';
    if (csv_.is_open()) {
      write_panel_csv(csv_, title, series, first_panel_);
      first_panel_ = false;
    }
    if (!gnuplot_dir_.empty()) {
      std::string basename;
      for (char c : title) {
        basename += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      const auto files = write_gnuplot_panel(gnuplot_dir_, basename, title, series);
      std::cout << "(gnuplot: " << files.script_path << ")\n";
    }
  }

 private:
  std::ofstream csv_;
  std::string gnuplot_dir_;
  bool first_panel_ = true;
};

}  // namespace mcsim::bench
