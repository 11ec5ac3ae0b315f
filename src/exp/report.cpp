#include "exp/report.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcsim {

std::vector<std::size_t> performance_order(const std::vector<SweepSeries>& series) {
  std::vector<std::size_t> order(series.size());
  std::iota(order.begin(), order.end(), 0);
  auto response_at_util = [](const SweepSeries& s, double util) {
    for (const auto& point : s.points) {
      if (!point.result.unstable && std::fabs(point.target_gross_utilization - util) < 1e-9) {
        return point.result.mean_response();
      }
    }
    return std::numeric_limits<double>::infinity();
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double max_a = series[a].max_stable_utilization();
    const double max_b = series[b].max_stable_utilization();
    if (std::fabs(max_a - max_b) > 1e-9) return max_a > max_b;
    const double common = std::min(max_a, max_b);
    return response_at_util(series[a], common) < response_at_util(series[b], common);
  });
  return order;
}

void print_panel(std::ostream& out, const std::string& title,
                 const std::vector<SweepSeries>& series) {
  out << "== " << title << " ==\n";
  const auto order = performance_order(series);
  out << "legend (best first): ";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) out << ", ";
    out << series[order[i]].label;
  }
  out << "\n\n";

  for (std::size_t idx : order) {
    const auto& s = series[idx];
    TextTable table({"utilization", "mean response (s)", "ci95 (s)", "p95 (s)", "status"});
    for (const auto& point : s.points) {
      table.add_row({format_util(point.target_gross_utilization),
                     point.result.unstable ? "-" : format_double(point.result.mean_response(), 1),
                     point.result.unstable ? "-"
                                           : format_double(point.result.response_ci.halfwidth, 1),
                     point.result.unstable ? "-" : format_double(point.result.response_p95, 1),
                     point.result.unstable ? "unstable" : "ok"});
    }
    out << "-- " << s.label
        << "  (max stable utilization ~ " << format_util(s.max_stable_utilization()) << ")\n"
        << table.render() << '\n';
  }
}

void print_ascii_plot(std::ostream& out, const std::vector<SweepSeries>& series, double y_max,
                      int width, int height) {
  if (series.empty()) return;
  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width), ' '));
  const char* markers = "*+x#o@%&";
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char mark = markers[s % 8];
    for (const auto& point : series[s].points) {
      if (point.result.unstable) continue;
      const double x = point.target_gross_utilization;  // 0..1
      const double y = std::min(point.result.mean_response(), y_max);
      const int col = std::min(width - 1, static_cast<int>(x * (width - 1)));
      const int row =
          height - 1 - std::min(height - 1, static_cast<int>(y / y_max * (height - 1)));
      canvas[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = mark;
    }
  }
  out << "response (0.." << format_double(y_max, 0) << " s) vs utilization (0..1)\n";
  for (const auto& line : canvas) out << '|' << line << "|\n";
  out << '+' << std::string(static_cast<std::size_t>(width), '-') << "+\n";
  for (std::size_t s = 0; s < series.size(); ++s) {
    out << "  '" << markers[s % 8] << "' = " << series[s].label << '\n';
  }
}

}  // namespace mcsim
