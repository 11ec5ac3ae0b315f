// Fig. 6 — "The performance of LS, LP and GS (left-right) depending on the
// size limit of the job components. For LS and LP both the balanced (top)
// and unbalanced (bottom) cases are depicted".
//
// Five panels, each with the three component-size-limit curves {16,24,32}.
// Paper shape: limit 24 is the worst for every policy (the size-64 ->
// (22,21,21) packing argument); LS prefers 16 over 32; GS and LP slightly
// prefer 32 over 16.
#include <iostream>

#include "bench_common.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Fig. 6: effect of the job-component-size limit per policy");
  if (!options) return 0;
  bench::PanelSink sink(*options);

  std::cout << "== Fig. 6: component-size limit {16, 24, 32} per policy ==\n\n";
  struct Panel {
    PolicyKind policy;
    bool balanced;
  };
  const Panel panels[] = {{PolicyKind::kLS, true},  {PolicyKind::kLP, true},
                          {PolicyKind::kGS, true},  {PolicyKind::kLS, false},
                          {PolicyKind::kLP, false}};
  for (const auto& panel : panels) {
    std::vector<SweepSeries> series;
    for (std::uint32_t limit : das::kComponentLimits) {
      exp::ScenarioSpec spec = bench::sweep_spec(*options);
      spec.policy = panel.policy;
      spec.component_limit = limit;
      spec.balanced_queues = panel.balanced;
      series.push_back(run_sweep(spec));
    }
    sink.emit(std::string("Fig. 6 panel: ") + policy_name(panel.policy) +
                  (panel.balanced ? " (balanced)" : " (unbalanced)"),
              series);
  }
  return 0;
}
