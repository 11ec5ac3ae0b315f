// Compare the four scheduling policies (GS, LS, LP, SC) on the paper's
// workload at a chosen load.
//
//   $ ./examples/policy_comparison --utilization=0.55 --limit=16 --sim-jobs=30000
//   $ ./examples/policy_comparison --unbalanced     # hot local queue (40/20/20/20)
#include <iostream>

#include "exp/scenario_spec.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  CliParser parser("Compare GS/LS/LP/SC on the DAS workload at one load point");
  parser.add_option("utilization", "0.55", "target gross utilization in (0,1)");
  parser.add_option("limit", "16", "job-component-size limit (16, 24 or 32)");
  parser.add_option("sim-jobs", "30000", "number of simulated jobs per policy");
  parser.add_option("seed", "7", "master random seed");
  parser.add_flag("unbalanced", "one local queue receives 40% of local submissions");
  parser.add_flag("das64", "cap total job sizes at 64 (DAS-s-64)");
  if (!parser.parse(argc, argv)) return 0;

  exp::ScenarioSpec spec;
  spec.component_limit = static_cast<std::uint32_t>(parser.get_uint("limit"));
  spec.balanced_queues = !parser.get_flag("unbalanced");
  const bool das64 = parser.get_flag("das64");
  spec.size_model = das64 ? "das-s-64" : "das-s-128";
  spec.sim_jobs = parser.get_uint("sim-jobs");
  spec.seed = parser.get_uint("seed");
  const double rho = parser.get_double("utilization");

  std::cout << "workload: " << (das64 ? "DAS-s-64" : "DAS-s-128")
            << ", limit " << spec.component_limit << ", "
            << (spec.balanced_queues ? "balanced" : "unbalanced")
            << " local queues, target gross utilization " << format_util(rho) << "\n\n";

  TextTable table({"policy", "mean response (s)", "ci95", "p95 (s)", "mean wait (s)",
                   "busy fraction", "status"});
  for (PolicyKind policy :
       {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kSC}) {
    spec.policy = policy;
    const auto result = run_simulation(exp::to_simulation_config(spec, rho));
    table.add_row({result.policy,
                   result.unstable ? "-" : format_double(result.mean_response(), 1),
                   result.unstable ? "-" : format_double(result.response_ci.halfwidth, 1),
                   result.unstable ? "-" : format_double(result.response_p95, 1),
                   result.unstable ? "-" : format_double(result.wait_all.mean(), 1),
                   format_util(result.busy_fraction),
                   result.unstable ? "unstable (beyond saturation)" : "ok"});
  }
  std::cout << table.render();
  std::cout << "\nSC is the single-cluster FCFS baseline (128 processors, total requests).\n";
  return 0;
}
