// Paper scenarios: the exact parameter combinations of the evaluation
// (Sect. 3): policy x component-size limit x {balanced, unbalanced}
// x {DAS-s-128, DAS-s-64}, on the 4x32 multicluster (SC: 1x128).
#pragma once

#include <cstdint>
#include <string>

#include "core/engine.hpp"

namespace mcsim {

struct PaperScenario {
  PolicyKind policy = PolicyKind::kGS;
  std::uint32_t component_limit = 16;
  /// false: one local queue gets 40% of local submissions, the others 20%.
  bool balanced_queues = true;
  /// true: total job sizes from DAS-s-64 (the log cut at 64).
  bool limit_total_size_64 = false;
  double extension_factor = 1.25;
  PlacementRule placement = PlacementRule::kWorstFit;

  [[nodiscard]] std::string label() const;
};

/// SimulationConfig for a scenario at a target gross utilization.
SimulationConfig make_paper_config(const PaperScenario& scenario,
                                   double target_gross_utilization, std::uint64_t total_jobs,
                                   std::uint64_t seed);

/// Constant-backlog SimulationConfig (Table 3's saturation mode) for a
/// scenario: the run's busy fraction is the maximal gross utilization.
SimulationConfig make_saturation_config(const PaperScenario& scenario,
                                        std::uint64_t total_completions, std::uint64_t seed);

}  // namespace mcsim
