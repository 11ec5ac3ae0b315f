// Capacity planning with the constant-backlog method (paper Sect. 4):
// "what is the maximal utilization this multicluster can sustain under a
// given policy and component-size limit, and how much of it is lost to
// wide-area communication?"
//
// The machine and workload are described as a ScenarioSpec in saturation
// mode — the same vocabulary `mcsim run` executes — and turned into a
// constant-backlog engine config with exp::to_simulation_config.
//
//   $ ./examples/capacity_planning --clusters=4 --cluster-size=32 --limit=16
//   $ ./examples/capacity_planning --policy=SC
#include <iostream>

#include "exp/scenario_spec.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  CliParser parser("Maximal sustainable utilization by constant-backlog simulation");
  parser.add_option("policy", "GS", "GS, LS, LP or SC");
  parser.add_option("clusters", "4", "number of clusters");
  parser.add_option("cluster-size", "32", "processors per cluster");
  parser.add_option("limit", "16", "job-component-size limit");
  parser.add_option("extension", "1.25", "wide-area service-time extension factor");
  parser.add_option("completions", "40000", "jobs to complete");
  parser.add_option("seed", "5", "master random seed");
  if (!parser.parse(argc, argv)) return 0;

  const auto clusters = static_cast<std::uint32_t>(parser.get_uint("clusters"));
  const auto cluster_size = static_cast<std::uint32_t>(parser.get_uint("cluster-size"));

  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kSaturation;
  spec.policy = parse_policy_kind(parser.get("policy"));
  const bool single = is_single_cluster_policy(spec.policy);
  spec.cluster_sizes.assign(single ? 1 : clusters,
                            single ? clusters * cluster_size : cluster_size);
  spec.component_limit = static_cast<std::uint32_t>(parser.get_uint("limit"));
  spec.extension_factor = parser.get_double("extension");
  spec.saturation_completions = parser.get_uint("completions");
  spec.seed = parser.get_uint("seed");

  const auto config = exp::to_simulation_config(spec);
  const auto result = run_simulation(config);

  std::uint32_t total = 0;
  for (auto s : config.cluster_sizes) total += s;
  std::cout << "system: " << config.cluster_sizes.size() << " cluster(s), " << total
            << " processors; policy " << result.policy << "; limit "
            << config.workload.component_limit << "; extension factor "
            << format_double(config.workload.extension_factor, 2) << "\n\n";

  TextTable table({"metric", "value"});
  table.add_row({"maximal gross utilization", format_util(result.busy_fraction)});
  table.add_row({"maximal net utilization", format_util(result.carried_net_utilization)});
  table.add_row({"capacity lost to wide-area comm",
                 format_util(result.busy_fraction - result.carried_net_utilization)});
  table.add_row({"completions simulated", std::to_string(result.completed_jobs)});
  std::cout << table.render();

  if (!single) {
    std::cout << "\nclosed-form gross/net ratio for this workload: "
              << format_util(gross_net_ratio(config.workload.size_distribution,
                                             config.workload.component_limit, clusters,
                                             config.workload.extension_factor))
              << '\n';
  }
  std::cout << "\nInterpretation: offered loads above the maximal gross utilization\n"
               "have no steady state — queues grow without bound (paper Sect. 4).\n";
  return 0;
}
