// Macro-benchmark for the engine hot loop: replay a 120k-job synthetic SWF
// (the same log tools/make_bench_trace writes, synthesised here in memory)
// through the full engine and report end-to-end events/sec and jobs/sec.
//
// This is the benchmark behind BENCH_hot_loop.json and the thresholded CI
// regression gate (tools/bench_compare.py + bench/baseline.json, see
// docs/PERFORMANCE.md). Two design points matter for gating:
//
//   * ReplayGS / ReplayLS exercise the per-event path end to end — job
//     construction, queue hops, placement, event-heap traffic — on a trace
//     long enough (100k replayed jobs) that per-event costs dominate setup.
//   * HeapHoldCalibration is a machine-speed yardstick: the gate compares
//     each benchmark's time *relative to the calibration time from the same
//     run*, so a uniformly slower machine (or a noisy CI runner) does not
//     produce false regressions; only the engine getting slower relative to
//     a fixed workload does. It shares no code with mcsim, so a change to
//     the engine cannot move the yardstick it is measured against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "trace/synthetic_log.hpp"
#include "workload/trace_workload.hpp"

namespace mcsim {
namespace {

// Bench-pinned trace parameters; keep in sync with tools/make_bench_trace.
constexpr std::uint64_t kTraceJobs = 120000;
constexpr double kTraceDays = 360.0;
constexpr std::uint64_t kReplayJobs = 100000;
// Offered gross utilization the submit axis is scaled to. Comfortably below
// every policy's saturation point so the replay is a steady-state run, not
// a backlog-growth measurement.
constexpr double kUtilization = 0.5;

/// The shared in-memory bench trace, synthesised and sorted once per
/// process. Sorted records need no re-sort, so a one-record window passes
/// them straight through: the engine's work, not the merge's, is timed.
const std::shared_ptr<const TraceWorkloadConfig>& bench_trace() {
  static const std::shared_ptr<const TraceWorkloadConfig> config = [] {
    SyntheticLogConfig log;
    log.num_jobs = kTraceJobs;
    log.duration_seconds = kTraceDays * 86400.0;
    auto records = std::make_shared<const std::vector<TraceRecord>>(
        usable_trace_records(generate_synthetic_das1_log(log).records));
    TraceStreamSummary summary;
    for (const TraceRecord& record : *records) summary.add(record);
    auto out = std::make_shared<TraceWorkloadConfig>();
    out->open_source = [records] { return std::make_unique<VectorRecordSource>(records); };
    out->usable_records = summary.usable_records;
    out->lookahead_window = 1;
    out->component_limit = 16;
    out->num_clusters = 4;
    out->split_jobs = true;
    out->arrival_scale = trace_scale_for_utilization(summary, 128, kUtilization);
    out->source_path = "<in-memory bench trace>";
    return std::shared_ptr<const TraceWorkloadConfig>(std::move(out));
  }();
  return config;
}

SimulationConfig replay_config(PolicyKind policy) {
  SimulationConfig config;
  config.policy = policy;
  config.pipeline = expand_policy(policy);
  config.cluster_sizes = {32, 32, 32, 32};
  config.trace_workload = bench_trace();
  config.total_jobs = kReplayJobs;
  return config;
}

void BM_ReplayThroughput(benchmark::State& state, PolicyKind policy) {
  const SimulationConfig config = replay_config(policy);
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    SimulationResult result = run_simulation(config);
    benchmark::DoNotOptimize(result);
    events += result.events_executed;
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["jobs/sec"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

BENCHMARK_CAPTURE(BM_ReplayThroughput, GS, PolicyKind::kGS)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayThroughput, LS, PolicyKind::kLS)
    ->Unit(benchmark::kMillisecond);

// Machine-speed yardstick for the regression gate: a fixed hold model (pop
// the earliest key, push it back later) on a 1024-entry binary heap of
// doubles, the shape of perfbench's heap_hold_s. Like the engine's event
// loop it is branch-bound and cache-resident, but it calls only the
// standard library, so no change to mcsim can move it.
void BM_HeapHoldCalibration(benchmark::State& state) {
  constexpr std::size_t kEntries = 1024;
  constexpr int kOperations = 100000;
  std::vector<double> heap(kEntries);
  for (auto _ : state) {
    state.PauseTiming();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (double& key : heap) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key = static_cast<double>(x >> 44);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    state.ResumeTiming();
    for (int i = 0; i < kOperations; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() += 1.0 + 0.001 * static_cast<double>(i % 97);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    benchmark::DoNotOptimize(heap.front());
  }
  state.SetItemsProcessed(state.iterations() * kOperations);
}

BENCHMARK(BM_HeapHoldCalibration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mcsim

BENCHMARK_MAIN();
