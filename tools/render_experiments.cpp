// render_experiments — writes every measured cell of EXPERIMENTS.md from the
// sealed goldens under data/golden/ and the closed forms in src/.
//
// Run from the repository root, with no arguments. Each table of measured
// numbers sits between a pair of marker lines
//   <!-- BEGIN rendered: NAME -->
//   <!-- END rendered: NAME -->
// and the tool replaces what lies between them, leaving the prose outside
// the blocks alone. Every row (or column) names its source: a stem `S` is
// the golden data/golden/S.golden.json, a function name is a closed form.
// Nothing is simulated, so a number no golden or closed form holds cannot
// reach a table; a missing golden, a golden without a field a table reads,
// or a missing or unknown block exits 1. The
// experiments_render_byte_for_byte ctest renders a copy of the document and
// diffs it against the checked-in one.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "obs/json_reader.hpp"
#include "trace/synthetic_log.hpp"
#include "trace/trace_stats.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"
#include "workload/das_workload.hpp"

namespace {

using mcsim::format_double;
using mcsim::format_util;
using mcsim::obs::JsonValue;

constexpr const char* kDocument = "EXPERIMENTS.md";
constexpr const char* kGoldenDir = "data/golden/";
constexpr const char* kUnstable = "-";

// -- the goldens ---------------------------------------------------------------

/// One sweep point: the statistics the tables show.
struct Point {
  double utilization = 0.0;
  bool unstable = false;
  double mean = 0.0;
  double local = 0.0;
  double global = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  double gross = 0.0;  ///< offered gross utilization
  double net = 0.0;    ///< offered net utilization
};

/// A sealed sweep: its points up to and including the first unstable one.
struct Curve {
  std::string stem;
  std::vector<Point> points;

  /// The point at `utilization`; nullptr when the sweep stopped at an
  /// unstable point below it. Throws when the sweep never reached it.
  [[nodiscard]] const Point* at(double utilization) const {
    for (const Point& point : points) {
      if (std::fabs(point.utilization - utilization) < 1e-9) return &point;
    }
    MCSIM_REQUIRE(!points.empty() && points.back().unstable &&
                      points.back().utilization < utilization,
                  stem + " has no point at utilization " + format_util(utilization));
    return nullptr;
  }

  [[nodiscard]] double last_stable() const { return series("").max_stable_utilization(); }

  /// The curve as a SweepSeries under `label` (only unstable flags and mean
  /// responses are filled in), for the legend rule performance_order.
  [[nodiscard]] mcsim::SweepSeries series(const std::string& label) const {
    mcsim::SweepSeries series;
    series.label = label;
    for (const Point& point : points) {
      mcsim::SweepPoint sweep_point;
      sweep_point.target_gross_utilization = point.utilization;
      sweep_point.result.unstable = point.unstable;
      sweep_point.result.response_all.add(point.mean);
      series.points.push_back(sweep_point);
    }
    return series;
  }
};

/// The constant-backlog ceiling of a saturation golden.
struct Ceiling {
  double gross = 0.0;
  double net = 0.0;
};

/// `read` applied to the observed block of data/golden/<stem>.golden.json,
/// which must hold a run of `mode`. Every error names the file.
template <typename Read>
auto read_golden(const std::string& stem, const std::string& mode, Read read) {
  const std::string path = kGoldenDir + stem + ".golden.json";
  try {
    const JsonValue golden = mcsim::obs::parse_json_file(path);
    const JsonValue& observed = golden.at("observed");
    MCSIM_REQUIRE(observed.at("mode").as_string() == mode, "not a " + mode + " golden");
    return read(observed);
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

Point point(double utilization, const JsonValue& result) {
  const JsonValue& response = result.at("response");
  return {utilization,
          result.at("unstable").as_bool(),
          result.at("mean_response").as_double(),
          response.at("local").at("mean").as_double(),
          response.at("global").at("mean").as_double(),
          response.at("p95").as_double(),
          response.at("all").at("max").as_double(),
          result.at("offered_gross_utilization").as_double(),
          result.at("offered_net_utilization").as_double()};
}

Curve curve(const std::string& stem) {
  return read_golden(stem, "sweep", [&](const JsonValue& observed) {
    Curve curve{stem, {}};
    for (const JsonValue& item : observed.at("points").items()) {
      curve.points.push_back(point(item.at("utilization").as_double(), item.at("result")));
    }
    MCSIM_REQUIRE(!curve.points.empty(), "a sweep without points");
    return curve;
  });
}

Ceiling ceiling(const std::string& stem) {
  return read_golden(stem, "saturation", [](const JsonValue& observed) {
    return Ceiling{observed.at("maximal_gross_utilization").as_double(),
                   observed.at("maximal_net_utilization").as_double()};
  });
}

// -- Markdown ------------------------------------------------------------------

std::string row(const std::vector<std::string>& cells) {
  std::string line = "|";
  for (const std::string& cell : cells) line += " " + cell + " |";
  return line + "\n";
}

std::string header(const std::vector<std::string>& cells) {
  std::string rule = "|";
  for (std::size_t i = 0; i < cells.size(); ++i) rule += "---|";
  return row(cells) + rule + "\n";
}

std::string code(const std::string& stem) { return "`" + stem + "`"; }

std::string joined(const std::vector<std::string>& parts, const std::string& separator) {
  std::string text;
  for (std::size_t i = 0; i < parts.size(); ++i) text += (i ? separator : "") + parts[i];
  return text;
}

/// Mean response at `utilization`, or kUnstable past the knee.
std::string response_cell(const Curve& curve, double utilization, int digits) {
  const Point* point = curve.at(utilization);
  return point == nullptr || point->unstable ? kUnstable : format_double(point->mean, digits);
}

/// The legend, best first by the rule of print_panel's legends:
/// `labels[i]` names `curves[i]`.
std::vector<std::string> legend(const std::vector<Curve>& curves,
                                const std::vector<std::string>& labels) {
  std::vector<mcsim::SweepSeries> series;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    series.push_back(curves[i].series(labels[i]));
  }
  std::vector<std::string> order;
  for (std::size_t i : mcsim::performance_order(series)) order.push_back(labels[i]);
  return order;
}

/// "A 0.65, B 0.60, ...": the legend with each curve's last stable point.
std::string legend_cell(const std::vector<Curve>& curves,
                        const std::vector<std::string>& labels,
                        const std::vector<std::string>& order) {
  std::vector<std::string> cells;
  for (const std::string& label : order) {
    const auto i = static_cast<std::size_t>(
        std::find(labels.begin(), labels.end(), label) - labels.begin());
    cells.push_back(label + " " + format_double(curves[i].last_stable(), 2));
  }
  return joined(cells, ", ");
}

std::string stems(const std::vector<Curve>& curves) {
  std::vector<std::string> names;
  for (const Curve& curve : curves) names.push_back(code(curve.stem));
  return joined(names, ", ");
}

/// One response table: a row per utilization from `from` to `to`, a column
/// per curve, then the line naming each column's golden.
std::string response_table(const std::vector<std::string>& columns,
                           const std::vector<Curve>& curves, double from, double to) {
  std::vector<std::string> head{"gross util"};
  for (const std::string& column : columns) head.push_back(column + " (s)");
  std::string text = header(head);
  for (double utilization : mcsim::make_sweep_grid(from, to, 0.05)) {
    std::vector<std::string> cells{format_util(utilization)};
    for (const Curve& curve : curves) cells.push_back(response_cell(curve, utilization, 1));
    text += row(cells);
  }
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    sources.push_back(columns[i] + " " + code(curves[i].stem));
  }
  return text + "\nColumns from " + joined(sources, ", ") + "; `" + kUnstable +
         "` is unstable.\n";
}

// -- the paper's curves --------------------------------------------------------

std::string lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

/// The Fig. 3 golden of a policy at a component limit. SC and GS have no
/// local queues, so their curves serve both balances.
std::string fig3_stem(const std::string& policy, std::uint32_t limit, bool balanced) {
  if (policy == "SC") return "fig3_sc";
  if (policy == "GS" && limit == 32) return "fig6_gs_limit32";
  if (policy == "LS" && limit == 24 && balanced) return "fig6_ls_limit24";
  const std::string suffix = policy == "GS" || balanced ? "" : "_unbalanced";
  return "fig3_" + lower(policy) + "_limit" + std::to_string(limit) + suffix;
}

const std::vector<std::string> kPolicies = {"LS", "SC", "GS", "LP"};

std::string balance_name(bool balanced) { return balanced ? "balanced" : "unbalanced"; }

// -- the blocks ----------------------------------------------------------------

/// The synthetic DAS1 log at its default size and seed (Table 1, Figs. 1-2).
const mcsim::SwfTrace& synthetic_log() {
  static const mcsim::SwfTrace log = mcsim::generate_synthetic_das1_log({});
  return log;
}

std::string table1() {
  const mcsim::SwfTrace& log = synthetic_log();
  const mcsim::SyntheticLogConfig config;
  std::string text = header({"size", "paper", "DAS-s-128 (exact)",
                             "synthetic log (" + std::to_string(config.num_jobs) + " jobs)"});
  for (const auto& fraction : mcsim::das1_power_of_two_fractions()) {
    text += row({std::to_string(fraction.size), format_util(fraction.fraction),
                 format_util(mcsim::das_s_128().probability_of(fraction.size)),
                 format_util(mcsim::fraction_with_size(log.records, fraction.size))});
  }
  return text + "\nColumns from `das1_power_of_two_fractions()`, `das_s_128()` and "
                "`generate_synthetic_das1_log` at its default seed (" +
         std::to_string(config.seed) + ").\n";
}

std::string fig1() {
  const mcsim::SwfTrace& log = synthetic_log();
  const mcsim::TraceSummary summary = mcsim::summarize_trace(log.records);
  double paper_mass = 0.0;
  for (const auto& fraction : mcsim::das1_power_of_two_fractions()) {
    paper_mass += fraction.fraction;
  }
  std::string text = header({"quantity", "paper", "synthetic log"});
  text += row({"distinct sizes", "58", std::to_string(summary.distinct_sizes)});
  text += row({"size range", "[1, 128]",
               "[" + std::to_string(summary.min_size) + ", " +
                   std::to_string(summary.max_size) + "]"});
  text += row({"power-of-two mass", format_util(paper_mass),
               format_util(summary.power_of_two_fraction)});
  text += row({"mean size (cv)", "illegible", format_double(summary.mean_size, 2) + " (" +
                                                   format_double(summary.size_cv, 2) + ")"});
  text += "\n" + header({"sizes", "powers of two", "other numbers"});
  const mcsim::DiscreteHistogram density = mcsim::job_size_density(log.records);
  std::int64_t lo = 1;
  for (std::int64_t hi : {4, 8, 16, 32, 64, 128}) {
    double pow2 = 0.0;
    double other = 0.0;
    for (std::int64_t size = lo; size <= hi; ++size) {
      ((size & (size - 1)) == 0 ? pow2 : other) += density.fraction(size);
    }
    text += row({std::to_string(lo) + "–" + std::to_string(hi), format_util(pow2),
                 format_util(other)});
    lo = hi + 1;
  }
  return text + "\nFrom `summarize_trace` and `job_size_density` over the Table 1 log.\n";
}

std::string fig2() {
  const mcsim::SwfTrace& log = synthetic_log();
  const mcsim::TraceSummary raw = mcsim::summarize_trace(log.records);
  const mcsim::TraceSummary cut =
      mcsim::summarize_trace(mcsim::cut_by_service(log.records, 900.0));
  const auto model = mcsim::das_t_900();
  const auto mean_cv = [](double mean, double cv) {
    return format_double(mean, 1) + " s (" + format_double(cv, 2) + ")";
  };
  std::string text = header({"quantity", "synthetic log"});
  text += row({"jobs under 15 minutes", format_util(raw.fraction_under_15min)});
  text += row({"raw log mean service (cv)", mean_cv(raw.mean_service, raw.service_cv)});
  text += row({"cut log (DAS-t-900) mean service (cv)",
               mean_cv(cut.mean_service, cut.service_cv)});
  text += row({"model `das_t_900()` mean (cv)", mean_cv(model->mean(), model->cv())});
  text += "\n" + header({"service time", "share of jobs"});
  const mcsim::Histogram density = mcsim::service_time_density(log.records, 900.0, 6);
  const auto jobs = static_cast<double>(raw.job_count);
  for (std::size_t b = 0; b < density.bin_count(); ++b) {
    const std::string bin =
        format_double(density.bin_lo(b), 0) + "–" + format_double(density.bin_hi(b), 0);
    text += row({bin + " s", format_util(static_cast<double>(density.bin(b)) / jobs)});
  }
  text += row({"900 s and over",
               format_util(static_cast<double>(density.overflow()) / jobs)});
  return text + "\nFrom `summarize_trace`, `cut_by_service` and `service_time_density` over "
                "the Table 1 log.\n";
}

std::string table2() {
  const std::map<std::uint32_t, std::string> paper = {
      {16, "0.513, 0.267, 0.009\\*, 0.211"},
      {24, "0.738, 0.051, 0.194, 0.017"},
      {32, "0.780, 0.200, 0.003, 0.017"}};
  std::string text = header({"limit", "paper (1,2,3,4 comps)", "measured (exact)"});
  for (std::uint32_t limit : mcsim::das::kComponentLimits) {
    std::vector<std::string> cells;
    for (double fraction : mcsim::component_count_fractions(mcsim::das_s_128(), limit, 4)) {
      cells.push_back(format_util(fraction));
    }
    text += row({std::to_string(limit), paper.at(limit), joined(cells, ", ")});
  }
  return text +
         "\nMeasured column from `component_count_fractions(das_s_128(), limit, 4)`.\n";
}

std::string fig3() {
  const std::map<std::pair<std::uint32_t, bool>, std::vector<std::string>> paper = {
      {{16, true}, {"LS", "SC", "GS", "LP"}},  {{24, true}, {"SC", "LS", "GS", "LP"}},
      {{32, true}, {"SC", "LS", "GS", "LP"}},  {{16, false}, {"SC", "LS", "GS", "LP"}},
      {{24, false}, {"SC", "LS", "GS", "LP"}}, {{32, false}, {"SC", "GS", "LP", "LS"}}};
  std::string text = header({"panel", "paper legend (best→worst)",
                             "measured legend, last stable utilization", "same order",
                             "goldens"});
  for (bool balanced : {true, false}) {
    for (std::uint32_t limit : mcsim::das::kComponentLimits) {
      std::vector<Curve> curves;
      for (const std::string& policy : kPolicies) {
        curves.push_back(curve(fig3_stem(policy, limit, balanced)));
      }
      const auto order = legend(curves, kPolicies);
      const auto& expected = paper.at({limit, balanced});
      text += row({"limit " + std::to_string(limit) + ", " + balance_name(balanced),
                   joined(expected, ", "), legend_cell(curves, kPolicies, order),
                   order == expected ? "yes" : "no", stems(curves)});
    }
  }
  return text;
}

std::string fig4() {
  std::string text = header({"panel", "utilization", "LP local (s)", "LP total (s)",
                             "LP global (s)", "GS (s)", "LS (s)", "SC (s)", "gross", "net"});
  for (bool balanced : {true, false}) {
    for (std::uint32_t limit : mcsim::das::kComponentLimits) {
      const Curve lp = curve(fig3_stem("LP", limit, balanced));
      const double utilization = lp.last_stable();
      const Point& point = *lp.at(utilization);
      std::vector<std::string> cells{"limit " + std::to_string(limit) + ", " +
                                         balance_name(balanced),
                                     format_util(utilization), format_double(point.local, 0),
                                     format_double(point.mean, 0),
                                     format_double(point.global, 0)};
      for (const char* policy : {"GS", "LS", "SC"}) {
        const Curve other = curve(fig3_stem(policy, limit, balanced));
        cells.push_back(response_cell(other, utilization, 0));
      }
      cells.push_back(format_util(point.gross));
      cells.push_back(format_util(point.net));
      text += row(cells);
    }
  }
  const Point lp = read_golden("fig4_lp_point", "point", [](const JsonValue& observed) {
    return point(0.60, observed.at("result"));
  });
  return text + "\nEach row is LP's last stable point in the panel's Fig. 3 goldens (above); "
                "`" + kUnstable + "` is unstable. The 30 000-job LP point at 0.60 "
                "(`fig4_lp_point`): local " +
         format_double(lp.local, 0) + " s, total " + format_double(lp.mean, 0) +
         " s, global " + format_double(lp.global, 0) + " s.\n";
}

std::string fig5() {
  const std::vector<std::string> policies = {"SC", "LS", "LP", "GS"};
  std::vector<Curve> curves;
  std::vector<std::string> labels;
  std::string text = header({"policy", "last stable, DAS-s-64", "last stable, DAS-s-128",
                             "goldens"});
  std::vector<Curve> cut;
  for (const std::string& policy : policies) {
    const Curve das64 = curve("fig5_" + lower(policy) + "_das64");
    const Curve das128 = curve(fig3_stem(policy, 16, true));
    text += row({policy, format_util(das64.last_stable()), format_util(das128.last_stable()),
                 stems({das64, das128})});
    curves.push_back(das64);
    labels.push_back(policy + "-64");
    cut.push_back(das128);
  }
  for (std::size_t i = 0; i < policies.size(); ++i) {
    curves.push_back(cut[i]);
    labels.push_back(policies[i] + "-128");
  }
  const std::vector<std::string> paper = {"SC-64",  "LS-64",  "LP-64",  "GS-64",
                                          "LS-128", "SC-128", "GS-128", "LP-128"};
  const auto order = legend(curves, labels);
  return text + "\nMeasured legend (best→worst): " + joined(order, ", ") +
         ".\nPaper legend: " + joined(paper, ", ") + " (" +
         (order == paper ? "same order" : "a different order") + ").\n";
}

std::string fig6() {
  struct Panel {
    std::string policy;
    bool balanced;
    std::vector<std::string> paper;
  };
  const std::vector<Panel> panels = {{"LS", true, {"16", "32", "24"}},
                                     {"LP", true, {"16", "32", "24"}},
                                     {"GS", true, {"32", "16", "24"}},
                                     {"LS", false, {"16", "32", "24"}},
                                     {"LP", false, {"16", "32", "24"}}};
  std::string text = header({"panel", "paper", "measured, last stable utilization",
                             "same order", "goldens"});
  for (const Panel& panel : panels) {
    std::vector<Curve> curves;
    std::vector<std::string> labels;
    for (std::uint32_t limit : mcsim::das::kComponentLimits) {
      curves.push_back(curve(fig3_stem(panel.policy, limit, panel.balanced)));
      labels.push_back(std::to_string(limit));
    }
    const auto order = legend(curves, labels);
    text += row({panel.policy + " " + balance_name(panel.balanced), joined(panel.paper, ", "),
                 legend_cell(curves, labels, order), order == panel.paper ? "yes" : "no",
                 stems(curves)});
  }
  return text;
}

std::string fig7() {
  std::string text = header({"limit", "gross/net (closed form)", "engine gross/net",
                             "LS max gross → net", "LP max gross → net",
                             "GS max gross → net", "goldens"});
  for (std::uint32_t limit : mcsim::das::kComponentLimits) {
    const double ratio = mcsim::gross_net_ratio(mcsim::das_s_128(), limit, 4, 1.25);
    std::vector<Curve> curves;
    for (const char* policy : {"LS", "LP", "GS"}) {
      curves.push_back(curve(fig3_stem(policy, limit, true)));
    }
    const Point& ls = *curves[0].at(curves[0].last_stable());
    std::vector<std::string> cells{std::to_string(limit), format_util(ratio),
                                   format_util(ls.gross / ls.net)};
    for (const Curve& sweep : curves) {
      const double gross = sweep.last_stable();
      cells.push_back(format_util(gross) + " → " + format_util(gross / ratio));
    }
    cells.push_back(stems(curves));
    text += row(cells);
  }
  return text + "\nClosed form: `gross_net_ratio(das_s_128(), limit, 4, 1.25)`; the engine's "
                "ratio is offered gross over offered net at LS's last stable point.\n";
}

std::string table3() {
  struct Row {
    std::string policy;
    std::string limit;
    std::string stem;
  };
  const std::vector<Row> rows = {
      {"GS", "16", "table3_gs_limit16_saturation"},
      {"GS", "24", "table3_gs_limit24_saturation"},
      {"GS", "32", "table3_gs_limit32_saturation"},
      {"SC", "—", "table3_sc_saturation"},
      {"LS (extension)", "16", "table3_ls_limit16_saturation"},
      {"LP (extension)", "16", "table3_lp_limit16_saturation"},
      {"GS + EASY backfilling (extension)", "16", "matrix/matrix_gs_easy_saturation"},
      {"GS + conservative backfilling (extension)", "16",
       "matrix/matrix_gs_conservative_saturation"}};
  std::string text =
      header({"policy", "limit", "max gross", "max net", "gross/net", "sealed by"});
  for (const Row& entry : rows) {
    const Ceiling value = ceiling(entry.stem);
    text += row({entry.policy, entry.limit, format_util(value.gross), format_util(value.net),
                 format_util(value.gross / value.net), code(entry.stem)});
  }
  return text;
}

std::string ablation_extension() {
  const Curve sc = curve("fig3_sc");
  const double sc_max = sc.last_stable();
  std::string text = header({"extension factor", "LS max gross", "LS max net",
                             "net vs SC", "golden"});
  for (const auto& [factor, stem] : std::vector<std::pair<double, std::string>>{
           {1.0, "ablation_extension_ls_100"},
           {1.1, "ablation_extension_ls_110"},
           {1.25, "fig3_ls_limit16"},
           {1.4, "ablation_extension_ls_140"},
           {1.6, "ablation_extension_ls_160"},
           {2.0, "ablation_extension_ls_200"}}) {
    const double gross = curve(stem).last_stable();
    const double net = gross / mcsim::gross_net_ratio(mcsim::das_s_128(), 16, 4, factor);
    text += row({format_double(factor, 2), format_util(gross), format_util(net),
                 format_double(net / sc_max, 2) + "x", code(stem)});
  }
  return text + "\nNet is gross over `gross_net_ratio(das_s_128(), 16, 4, factor)`; SC's "
                "last stable utilization (`fig3_sc`, gross = net) is " +
         format_util(sc_max) + ".\n";
}

std::string ablation_request() {
  return response_table({"ordered", "unordered", "flexible"},
                        {curve("ablation_request_gs_ordered"), curve("fig3_gs_limit16"),
                         curve("ablation_request_gs_flexible")},
                        0.30, 0.75);
}

std::string ablation_backfill() {
  std::string text;
  for (const std::string policy : {"SC", "GS"}) {
    if (!text.empty()) text += "\n";
    text += policy + " (DAS-s-128, limit 16):\n\n";
    text += response_table({"FCFS", "aggressive", "EASY", "FCFS + DAS-s-64"},
                           {curve(fig3_stem(policy, 16, true)),
                            curve("ablation_backfill_" + lower(policy) + "_aggressive"),
                            curve("ablation_backfill_" + lower(policy) + "_easy"),
                            curve("fig5_" + lower(policy) + "_das64")},
                           0.40, 0.85);
  }
  return text;
}

std::string ablation_discipline() {
  const std::vector<std::string> names = {"FCFS", "SJF", "smallest-first", "largest-first"};
  const std::vector<Curve> curves = {curve("fig3_sc"), curve("ablation_discipline_sc_sjf"),
                                     curve("ablation_discipline_sc_smallest"),
                                     curve("ablation_discipline_sc_largest")};
  std::string text = response_table(names, curves, 0.40, 0.80);
  text += "\nAt gross utilization 0.60:\n\n" +
          header({"discipline", "mean (s)", "p95 (s)", "max (s)", "golden"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Point& point = *curves[i].at(0.60);
    text += row({names[i], format_double(point.mean, 1), format_double(point.p95, 1),
                 format_double(point.max, 1), code(curves[i].stem)});
  }
  return text;
}

/// Every block, by the name in its markers.
struct Block {
  const char* name;
  std::string (*render)();
};
constexpr Block kBlocks[] = {
    {"table1", table1},
    {"fig1", fig1},
    {"fig2", fig2},
    {"table2", table2},
    {"fig3", fig3},
    {"fig4", fig4},
    {"fig5", fig5},
    {"fig6", fig6},
    {"fig7", fig7},
    {"table3", table3},
    {"ablation_extension", ablation_extension},
    {"ablation_request", ablation_request},
    {"ablation_backfill", ablation_backfill},
    {"ablation_discipline", ablation_discipline}};

/// `text` with every marked block's body replaced by its rendering.
std::string render(const std::string& text) {
  const std::string begin = "<!-- BEGIN rendered: ";
  const std::string close = " -->";
  std::istringstream in(text);
  std::string out;
  std::set<std::string> seen;
  std::string line;
  while (std::getline(in, line)) {
    out += line + "\n";
    if (line.rfind(begin, 0) != 0) continue;
    const std::string name =
        line.substr(begin.size(), line.size() - begin.size() - close.size());
    const Block* block = std::find_if(std::begin(kBlocks), std::end(kBlocks),
                                      [&](const Block& entry) { return entry.name == name; });
    MCSIM_REQUIRE(block != std::end(kBlocks),
                  std::string(kDocument) + ": unknown block " + name);
    MCSIM_REQUIRE(seen.insert(name).second, std::string(kDocument) + ": block " + name +
                                                " appears twice");
    const std::string end = "<!-- END rendered: " + name + close;
    while (std::getline(in, line) && line != end) {
    }
    MCSIM_REQUIRE(line == end, std::string(kDocument) + ": block " + name + " is not closed");
    out += block->render() + end + "\n";
  }
  for (const Block& block : kBlocks) {
    MCSIM_REQUIRE(seen.count(block.name) == 1,
                  std::string(kDocument) + " has no block " + block.name);
  }
  return out;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::cerr << "usage: render_experiments (no arguments; run from the repository root)\n";
    return 2;
  }
  try {
    std::ifstream in(kDocument);
    MCSIM_REQUIRE(in.good(), std::string("cannot open ") + kDocument);
    std::stringstream text;
    text << in.rdbuf();
    const std::string rendered = render(text.str());
    std::ofstream out(kDocument);
    out << rendered;
    MCSIM_REQUIRE(out.good(), std::string("write failed: ") + kDocument);
    std::cout << "rendered " << std::size(kBlocks) << " blocks into " << kDocument << '\n';
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "render_experiments: " << error.what() << '\n';
    return 1;
  }
}
