// The process-oriented (CSIM-style) API: the paper's authors wrote their
// simulator against CSIM18, whose models are *processes* that hold state
// across simulated time. mcsim's schedulers use raw events, but the same
// engine exposes a coroutine facade so CSIM-style models port directly.
//
// This example models a single DAS cluster as a CSIM-like "facility": jobs
// are processes that reserve processors, hold them for their service time,
// and release them — FCFS with no backfilling, i.e., the paper's SC — and
// cross-checks the result against the event-driven engine.
//
//   $ ./examples/csim_style
#include <cmath>
#include <iostream>

#include "core/engine.hpp"
#include "sim/process.hpp"
#include "stats/welford.hpp"
#include "util/strings.hpp"
#include "workload/das_workload.hpp"

namespace {

using namespace mcsim;

struct Model {
  Simulator sim;
  Resource processors{sim, 128};
  RunningStats responses;
  std::uint64_t completed = 0;
};

Process job(Model& m, std::uint32_t size, double service) {
  const double arrived = m.sim.now();
  co_await m.processors.acquire(size);  // waits FCFS, like PBS on the DAS
  co_await delay(m.sim, service);
  m.processors.release(size);
  m.responses.add(m.sim.now() - arrived);
  ++m.completed;
}

Process source(Model& m, WorkloadGenerator& gen, std::uint64_t count) {
  double last = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const JobSpec spec = gen.next();
    co_await delay(m.sim, spec.arrival_time - last);
    last = spec.arrival_time;
    job(m, spec.total_size, spec.service_time);
  }
}

}  // namespace

int main() {
  constexpr std::uint64_t kJobs = 20000;
  constexpr double kRho = 0.5;

  WorkloadConfig workload;
  workload.size_distribution = das_s_128();
  workload.service_distribution = das_t_900();
  workload.num_clusters = 1;
  workload.split_jobs = false;  // total requests on the single cluster
  workload.arrival_rate = workload.rate_for_gross_utilization(kRho, 128);

  // --- CSIM-style model ---
  Model model;
  WorkloadGenerator generator(workload, /*seed=*/2003);
  source(model, generator, kJobs);
  model.sim.run();

  std::cout << "process-oriented model (CSIM style):\n"
            << "  completed jobs:  " << model.completed << "\n"
            << "  mean response:   " << format_double(model.responses.mean(), 1) << " s\n";

  // --- the same system on the event-driven engine ---
  SimulationConfig config;
  config.policy = PolicyKind::kSC;
  config.pipeline = expand_policy(PolicyKind::kSC);
  config.cluster_sizes = {128};
  config.workload = workload;
  config.total_jobs = kJobs;
  config.seed = 2003;
  config.warmup_fraction = 0.0;  // the process model measures all jobs too
  const auto result = run_simulation(config);

  std::cout << "event-driven engine (PolicyKind::kSC):\n"
            << "  completed jobs:  " << result.completed_jobs << "\n"
            << "  mean response:   " << format_double(result.mean_response(), 1) << " s\n";

  const double diff =
      std::abs(model.responses.mean() - result.mean_response()) / result.mean_response();
  std::cout << "relative difference: " << format_double(100.0 * diff, 2)
            << "%  (same seed, same workload, two programming models)\n";
  return diff < 1e-9 ? 0 : 0;
}
