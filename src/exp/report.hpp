// Rendering experiment output in the paper's vocabulary: one block per
// figure panel with a curve per scenario (utilization -> mean response
// time), legends ordered best-first like the paper's figure legends.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace mcsim {

/// Print a figure panel: every series as "utilization  response  ci95"
/// rows, preceded by a legend sorted by performance (best first), matching
/// the figures' right-to-left legend order.
void print_panel(std::ostream& out, const std::string& title,
                 const std::vector<SweepSeries>& series);

/// Legend order used by print_panel: scenarios sorted by descending maximal
/// stable utilization, ties by lower response at the highest common stable
/// point.
std::vector<std::size_t> performance_order(const std::vector<SweepSeries>& series);

/// An ASCII plot of the response-time curves (response on y, utilization on
/// x), so a sweep's output visually mirrors the paper's figures.
void print_ascii_plot(std::ostream& out, const std::vector<SweepSeries>& series,
                      double y_max = 10000.0, int width = 72, int height = 20);

}  // namespace mcsim
