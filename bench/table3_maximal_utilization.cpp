// Table 3 — "The maximal gross and net utilizations for different
// job-component-size limits for the GS policy", measured with the paper's
// constant-backlog method (Sect. 4 / reference [9]), plus the SC value the
// paper quotes alongside. LS and LP rows are an extension of ours (the
// paper's analysis applies only to single-global-queue policies; we keep a
// constant total backlog routed through the submission weights), as are the
// GS rows with EASY and conservative backfilling.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Table 3: maximal gross and net utilizations (constant backlog)");
  if (!options) return 0;
  const std::uint64_t completions = std::max<std::uint64_t>(options->sim_jobs, 20000);

  std::cout << "== Table 3: maximal utilizations, constant-backlog method ==\n\n";
  TextTable table({"policy", "limit", "max gross util", "max net util", "gross/net"});
  const auto add_row = [&](const std::string& label, const std::string& limit,
                           const SimulationConfig& config) {
    const auto result = run_simulation(config);
    table.add_row({label, limit, format_util(result.busy_fraction),
                   format_util(result.carried_net_utilization),
                   format_util(result.busy_fraction / result.carried_net_utilization)});
  };
  const auto saturation_config = [&](PolicyKind policy, std::uint32_t limit,
                                     BackfillMode backfill = BackfillMode::kNone) {
    exp::ScenarioSpec spec = bench::point_spec(*options);
    spec.mode = exp::RunMode::kSaturation;
    spec.saturation_completions = completions;
    spec.policy = policy;
    spec.component_limit = limit;
    spec.backfill = backfill;
    return exp::to_simulation_config(spec);
  };

  for (std::uint32_t limit : das::kComponentLimits) {
    add_row("GS", std::to_string(limit), saturation_config(PolicyKind::kGS, limit));
  }
  add_row("SC", "-", saturation_config(PolicyKind::kSC, 16));
  for (std::uint32_t limit : das::kComponentLimits) {
    for (PolicyKind policy : {PolicyKind::kLS, PolicyKind::kLP}) {
      add_row(std::string(policy_name(policy)) + " (ext.)", std::to_string(limit),
              saturation_config(policy, limit));
    }
  }
  // Backfilling raises the ceiling itself, not just the response times below
  // it: the constant backlog runs any pipeline composition.
  for (BackfillMode backfill : {BackfillMode::kEasy, BackfillMode::kConservative}) {
    const SimulationConfig config = saturation_config(PolicyKind::kGS, 16, backfill);
    add_row(scheduler_display_name(PolicyKind::kGS, config.pipeline) + " (ext.)", "16",
            config);
  }
  std::cout << table.render();

  std::cout << "\nclosed-form gross/net ratios (Sect. 4, independent of policy):\n";
  for (std::uint32_t limit : das::kComponentLimits) {
    std::cout << "  limit " << limit << ": "
              << format_util(gross_net_ratio(das_s_128(), limit, 4, 1.25)) << '\n';
  }
  std::cout << "(paper: measured maximal utilizations agree with the Fig. 7 curves;\n"
               " SC's constant-backlog maximum matches its Fig. 3 asymptote)\n";
  return 0;
}
