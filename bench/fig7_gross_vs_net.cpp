// Fig. 7 — "The response time as a function of the gross and the net
// utilization for the LS, LP and GS policies and for the three
// job-component-size limits (balanced local queues for LS and LP)".
//
// Nine panels. For a given workload the net utilization is the gross
// divided by the closed-form ratio of Sect. 4 (sizes and service times are
// independent), so each curve appears twice: once against gross, once
// against net. Paper shape: the horizontal gap grows as the limit shrinks
// (more multi-component jobs); at limit 16 LS reaches the highest gross
// utilization and therefore shows the largest gap.
#include <iostream>

#include "bench_common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Fig. 7: response time vs gross and net utilization");
  if (!options) return 0;
  bench::PanelSink sink(*options);

  std::cout << "== Fig. 7: gross vs net utilization (balanced local queues) ==\n\n";
  for (PolicyKind policy : {PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kGS}) {
    for (std::uint32_t limit : das::kComponentLimits) {
      exp::ScenarioSpec spec = bench::sweep_spec(*options);
      spec.policy = policy;
      spec.component_limit = limit;
      const auto series = run_sweep(spec);
      const double ratio = gross_net_ratio(das_s_128(), limit, 4, 1.25);

      std::cout << "-- " << policy_name(policy) << " limit " << limit
                << "  (gross/net ratio " << format_util(ratio) << ")\n";
      TextTable table({"gross util", "net util", "mean response (s)", "status"});
      for (const auto& point : series.points) {
        table.add_row(
            {format_util(point.target_gross_utilization),
             format_util(point.target_gross_utilization / ratio),
             point.result.unstable ? "-" : format_double(point.result.mean_response(), 1),
             point.result.unstable ? "unstable" : "ok"});
      }
      std::cout << table.render() << '\n';
      sink.emit(std::string("Fig. 7 panel: ") + policy_name(policy) + " limit " +
                    std::to_string(limit),
                {series}, /*ascii_plot=*/false);
    }
  }
  std::cout << "ratios grow as the limit shrinks: 16 -> "
            << format_util(gross_net_ratio(das_s_128(), 16, 4, 1.25)) << ", 24 -> "
            << format_util(gross_net_ratio(das_s_128(), 24, 4, 1.25)) << ", 32 -> "
            << format_util(gross_net_ratio(das_s_128(), 32, 4, 1.25)) << '\n';
  return 0;
}
