// Ablation: queue service order (extension; the paper fixes FCFS).
//
// The paper's Sect. 3.2 shows a few very large jobs dominate SC/GS
// performance under FCFS. Reordering the queue is the other classic lever:
// smallest-first and SJF sidestep the blocking (at a fairness cost),
// largest-first shows the anti-pattern.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const auto options = bench::parse_bench_options(
      argc, argv, "Ablation: FCFS vs SJF vs smallest/largest-first (SC)");
  if (!options) return 0;

  auto run_point = [&](QueueDiscipline discipline, double rho) {
    exp::ScenarioSpec spec = bench::point_spec(*options);
    spec.policy = PolicyKind::kSC;
    spec.discipline = discipline;
    return run_simulation(exp::to_simulation_config(spec, rho));
  };

  std::cout << "== Ablation: queue discipline under SC (DAS-s-128) ==\n\n";
  TextTable table({"gross util", "FCFS (s)", "SJF (s)", "smallest-first (s)",
                   "largest-first (s)"});
  for (double rho : make_sweep_grid(0.40, 0.80, 0.05)) {
    std::vector<std::string> row{format_util(rho)};
    for (QueueDiscipline discipline :
         {QueueDiscipline::kFcfs, QueueDiscipline::kShortestJobFirst,
          QueueDiscipline::kSmallestFirst, QueueDiscipline::kLargestFirst}) {
      const auto result = run_point(discipline, rho);
      row.push_back(result.unstable ? "-" : format_double(result.mean_response(), 1));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render();

  // Fairness counterpoint: SJF's mean hides the tail; show p95 too.
  std::cout << "\np95 response at utilization 0.60:\n";
  TextTable tail({"discipline", "mean (s)", "p95 (s)", "max (s)"});
  for (QueueDiscipline discipline :
       {QueueDiscipline::kFcfs, QueueDiscipline::kShortestJobFirst,
        QueueDiscipline::kSmallestFirst}) {
    const auto result = run_point(discipline, 0.60);
    if (result.unstable) continue;
    tail.add_row({queue_discipline_name(discipline),
                  format_double(result.mean_response(), 1),
                  format_double(result.response_p95, 1),
                  format_double(result.response_all.max(), 1)});
  }
  std::cout << tail.render();
  std::cout << "\nexpected: SJF/smallest-first cut the mean sharply but stretch the\n"
               "tail (large jobs starve); largest-first saturates earliest.\n";
  return 0;
}
