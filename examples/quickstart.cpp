// Quickstart: simulate co-allocation on a DAS-like multicluster in ~30 lines.
//
// Builds the paper's default workload (DAS-s-128 job sizes, DAS-t-900
// service times, component-size limit 16), runs the LS policy on a 4x32
// multicluster at 50% offered gross utilization, and prints the headline
// metrics.
//
//   $ ./examples/quickstart
#include <iostream>

#include "core/engine.hpp"
#include "util/strings.hpp"
#include "workload/das_workload.hpp"

int main() {
  using namespace mcsim;

  // 1. Describe the workload: total job sizes, service times, splitting.
  WorkloadConfig workload;
  workload.size_distribution = das_s_128();      // job sizes from the DAS1 log model
  workload.service_distribution = das_t_900();   // service times cut at 900 s
  workload.component_limit = 16;                 // split jobs into <=16-CPU components
  workload.num_clusters = 4;
  workload.extension_factor = 1.25;              // wide-area communication penalty

  // 2. Describe the run: policy, machine, load, length.
  SimulationConfig config;
  config.policy = PolicyKind::kLS;               // local queues + co-allocation
  config.pipeline = expand_policy(config.policy);  // LS's scheduling stages
  config.cluster_sizes = {32, 32, 32, 32};
  config.workload = workload;
  config.workload.arrival_rate =
      workload.rate_for_gross_utilization(0.5, config.total_processors());
  config.total_jobs = 20000;
  config.seed = 42;

  // 3. Run and read the results.
  const SimulationResult result = run_simulation(config);

  std::cout << "policy:               " << result.policy << "\n"
            << "completed jobs:       " << result.completed_jobs << "\n"
            << "mean response time:   " << format_double(result.mean_response(), 1)
            << " s  (95% CI +/- " << format_double(result.response_ci.halfwidth, 1)
            << ")\n"
            << "95th percentile:      " << format_double(result.response_p95, 1) << " s\n"
            << "mean wait time:       " << format_double(result.wait_all.mean(), 1) << " s\n"
            << "offered gross util:   " << format_util(result.offered_gross_utilization)
            << "\n"
            << "offered net util:     " << format_util(result.offered_net_utilization)
            << "  (the gap is wide-area communication)\n"
            << "busy fraction:        " << format_util(result.busy_fraction) << "\n";
  return 0;
}
