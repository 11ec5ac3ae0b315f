#include "exp/replications.hpp"

#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "stats/welford.hpp"
#include "util/assert.hpp"

namespace mcsim {

ReplicationResult run_replications(const exp::ScenarioSpec& spec) {
  MCSIM_REQUIRE(spec.replications > 0, "need at least one replication");
  // One trace scan serves every replication: only the seed differs.
  const exp::TraceResolver trace = exp::resolve_trace_once(spec);
  exp::Runner runner(spec.parallelism);
  const auto runs = runner.map(spec.replications, [&](std::size_t r) {
    exp::ScenarioSpec replication = spec;
    replication.seed = spec.seed + static_cast<std::uint64_t>(r);
    return run_simulation(exp::to_simulation_config(replication, spec.utilization, trace));
  });

  // Fold in replication order so the accumulated statistics (and their
  // floating-point rounding) are independent of completion order.
  ReplicationResult result;
  RunningStats means;
  RunningStats busy;
  for (const auto& run : runs) {
    if (run.unstable) {
      ++result.unstable_replications;
      continue;
    }
    result.replication_means.push_back(run.mean_response());
    means.add(run.mean_response());
    busy.add(run.busy_fraction);
  }
  result.response_ci = mean_confidence(means);
  result.mean_busy_fraction = busy.mean();
  return result;
}

}  // namespace mcsim
