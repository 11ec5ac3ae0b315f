#include "exp/scenario.hpp"

#include "exp/scenario_spec.hpp"

namespace mcsim {

std::string PaperScenario::label() const {
  std::string label = policy_name(policy);
  if (policy != PolicyKind::kSC) label += " limit=" + std::to_string(component_limit);
  if (!balanced_queues) label += " unbalanced";
  label += limit_total_size_64 ? " DAS-s-64" : " DAS-s-128";
  return label;
}

// Both helpers are thin translators onto the ScenarioSpec construction
// path — the single place workload/layout building lives now — so a
// PaperScenario run and the equivalent scenario file are bit-identical.

SimulationConfig make_paper_config(const PaperScenario& scenario,
                                   double target_gross_utilization, std::uint64_t total_jobs,
                                   std::uint64_t seed) {
  exp::ScenarioSpec spec = exp::ScenarioSpec::from_paper(scenario);
  spec.sim_jobs = total_jobs;
  spec.seed = seed;
  return exp::to_simulation_config(spec, target_gross_utilization);
}

SimulationConfig make_saturation_config(const PaperScenario& scenario,
                                        std::uint64_t total_completions, std::uint64_t seed) {
  exp::ScenarioSpec spec = exp::ScenarioSpec::from_paper(scenario);
  spec.mode = exp::RunMode::kSaturation;
  spec.saturation_completions = total_completions;
  spec.seed = seed;
  return exp::to_simulation_config(spec);
}

}  // namespace mcsim
