// Maximal-utilization estimation by constant backlog (paper Sect. 4,
// Table 3, and reference [9]): "we maintain a constant backlog and observe
// the time-average fraction of processors being busy, which yields the
// maximal gross utilization."
//
// The paper applies this to the single-global-queue policies (GS and SC).
// We additionally support LS and LP by keeping the *total* backlog constant
// and routing refills through the usual submission weights — an extension
// the benches label as such.
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/job_pool.hpp"

namespace mcsim {

struct SaturationConfig {
  PolicyKind policy = PolicyKind::kGS;
  std::vector<std::uint32_t> cluster_sizes = {32, 32, 32, 32};
  WorkloadConfig workload;  // arrival_rate is ignored (queues never drain)
  PlacementRule placement = PlacementRule::kWorstFit;
  std::uint64_t seed = 1;
  /// Jobs kept waiting at all times.
  std::uint64_t backlog = 200;
  /// Completions to simulate.
  std::uint64_t total_completions = 50000;
  double warmup_fraction = 0.2;
};

struct SaturationResult {
  std::string policy;
  /// Time-averaged busy fraction = maximal gross utilization.
  double maximal_gross_utilization = 0.0;
  /// Net counterpart, measured from the non-extended service times of the
  /// started jobs.
  double maximal_net_utilization = 0.0;
  std::uint64_t completions = 0;
  double end_time = 0.0;
};

class SaturationSimulation final : public SchedulerContext {
 public:
  explicit SaturationSimulation(SaturationConfig config);

  SaturationResult run();

  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return sim_.now(); }
  void start_job(JobPtr job) override;

 private:
  void refill();
  void on_departure(JobPtr job);

  SaturationConfig config_;
  Simulator sim_;
  Multicluster system_;
  JobPool pool_;
  WorkloadGenerator generator_;
  std::unique_ptr<Scheduler> scheduler_;
  UtilizationTracker utilization_;
  double net_work_started_ = 0.0;
  double measure_start_ = 0.0;
  bool measuring_ = false;
  std::uint64_t completions_ = 0;
  std::uint64_t warmup_completions_ = 0;
  bool ran_ = false;
};

SaturationResult run_saturation(const SaturationConfig& config);

}  // namespace mcsim
