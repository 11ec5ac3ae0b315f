// Fig. 3 — "The performance of the policies for job-component-size limits
// of 16, 24 and 32 (left-right); for LS and LP we depict results with
// balanced local queues (top) and unbalanced local queues (bottom)".
//
// Six panels: mean response time vs gross utilization for GS, LS, LP and
// the single-cluster SC baseline. Legends are printed best-first, matching
// the paper's right-to-left legend convention.
//
// Paper shape to look for: LS best multicluster policy at limit 16 (near or
// above SC); LP worst everywhere; unbalanced queues hurt LS markedly (at
// limit 32 LS drops below GS) and LP barely.
#include <iostream>

#include "bench_common.hpp"
#include "workload/das_workload.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Fig. 3: response time vs utilization, all policies x limits");
  if (!options) return 0;
  bench::PanelSink sink(*options);

  std::cout << "== Fig. 3: policy comparison (DAS-s-128, extension factor 1.25) ==\n\n";
  for (bool balanced : {true, false}) {
    for (std::uint32_t limit : das::kComponentLimits) {
      std::vector<SweepSeries> series;
      for (PolicyKind policy :
           {PolicyKind::kLS, PolicyKind::kSC, PolicyKind::kGS, PolicyKind::kLP}) {
        exp::ScenarioSpec spec = bench::sweep_spec(*options);
        spec.policy = policy;
        spec.component_limit = limit;
        // SC and GS have no local queues; the balance setting only affects
        // LS and LP (the paper reuses the SC/GS curves as references).
        spec.balanced_queues =
            balanced || policy == PolicyKind::kSC || policy == PolicyKind::kGS;
        series.push_back(run_sweep(spec));
      }
      sink.emit("Fig. 3 panel: limit " + std::to_string(limit) + ", " +
                    (balanced ? "balanced" : "unbalanced") + " local queues",
                series);
    }
  }
  return 0;
}
