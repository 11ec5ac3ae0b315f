// Fig. 4 — "The response times for job-component size limits of 16, 24 and
// 32 (left-right) close to LP's saturation point; for LS and LP the local
// queues are balanced (top) and unbalanced (bottom)".
//
// For each (limit, balance) the harness locates LP's saturation by a coarse
// sweep, backs off one grid step, and reports for GS, LS, LP and SC the
// mean response time — split for LP into local-queue and global-queue
// averages, the paper's bar triple (Local / Total Average / Global) — plus
// the gross and net utilizations printed above each chart in the paper.
#include <iostream>

#include "bench_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Fig. 4: per-queue response times close to LP's saturation");
  if (!options) return 0;

  std::cout << "== Fig. 4: response times near LP's saturation point ==\n"
            << "(paper shape: LP's global queue dwarfs its local queues; LS is on a\n"
            << " low point of its curve at these utilizations)\n\n";

  for (bool balanced : {true, false}) {
    for (std::uint32_t limit : das::kComponentLimits) {
      // Locate LP's saturation.
      exp::ScenarioSpec lp = bench::point_spec(*options);
      lp.policy = PolicyKind::kLP;
      lp.component_limit = limit;
      lp.balanced_queues = balanced;
      exp::ScenarioSpec coarse = lp;
      coarse.mode = exp::RunMode::kSweep;
      coarse.utilization_grid = bench::figure_grid();
      coarse.sim_jobs = options->sim_jobs / 2 + 1000;
      const double lp_max = run_sweep(coarse).max_stable_utilization();
      const double rho = lp_max > 0.0 ? lp_max : 0.30;

      std::cout << "-- limit " << limit << ", " << (balanced ? "balanced" : "unbalanced")
                << " local queues: utilization " << format_util(rho)
                << " (LP close to saturation)\n";

      TextTable table({"policy", "local avg (s)", "total avg (s)", "global avg (s)",
                       "gross util", "net util"});
      for (PolicyKind policy :
           {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kSC}) {
        exp::ScenarioSpec spec = lp;
        spec.policy = policy;
        spec.balanced_queues =
            balanced || policy == PolicyKind::kSC || policy == PolicyKind::kGS;
        const auto result = run_simulation(exp::to_simulation_config(spec, rho));
        auto cell = [&](const RunningStats& stats) {
          return stats.count() ? format_double(stats.mean(), 0) : std::string("-");
        };
        table.add_row({result.policy,
                       cell(result.response_local),
                       result.unstable ? "(unstable)" : cell(result.response_all),
                       cell(result.response_global),
                       format_util(result.offered_gross_utilization),
                       format_util(result.offered_net_utilization)});
      }
      std::cout << table.render() << '\n';
    }
  }
  std::cout << "closed-form gross/net ratios (Sect. 4): limit 16 "
            << format_util(gross_net_ratio(das_s_128(), 16, 4, 1.25)) << ", 24 "
            << format_util(gross_net_ratio(das_s_128(), 24, 4, 1.25)) << ", 32 "
            << format_util(gross_net_ratio(das_s_128(), 32, 4, 1.25)) << '\n';
  return 0;
}
