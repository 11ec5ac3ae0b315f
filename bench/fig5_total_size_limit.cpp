// Fig. 5 — "The response times for maximal total job size 64 and 128
// (job-component-size limit 16, balanced local queues)".
//
// One panel, eight curves: the four policies under DAS-s-128 and under
// DAS-s-64 (the log cut at 64). Paper shape: the cut improves everything,
// most dramatically SC (no more full-system drains for 128-size heads),
// and LS's advantage over SC shrinks.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Fig. 5: effect of limiting the total job size to 64");
  if (!options) return 0;
  bench::PanelSink sink(*options);

  std::cout << "== Fig. 5: DAS-s-64 vs DAS-s-128 (limit 16, balanced) ==\n\n";
  std::vector<SweepSeries> series;
  for (bool das64 : {true, false}) {
    for (PolicyKind policy :
         {PolicyKind::kSC, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kGS}) {
      exp::ScenarioSpec spec = bench::sweep_spec(*options);
      spec.policy = policy;
      spec.component_limit = 16;
      spec.size_model = das64 ? "das-s-64" : "das-s-128";
      series.push_back(run_sweep(spec));
    }
  }
  sink.emit("Fig. 5: total job size capped at 64 vs full DAS-s-128", series);
  return 0;
}
