// Engine microbenchmarks (google-benchmark): the DES calendar, placement
// rules (the WF/FF/BF ablation from DESIGN.md, and the per-attempt
// placement row), distribution sampling, SWF trace ingest, and end-to-end
// simulation throughput per policy.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "sim/calendar.hpp"
#include "trace/swf.hpp"
#include "util/rng.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"

namespace {

using namespace mcsim;

void BM_CalendarPushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Calendar cal;
    for (std::size_t i = 0; i < batch; ++i) cal.push(rng.uniform(0.0, 1e6));
    while (!cal.empty()) benchmark::DoNotOptimize(cal.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CalendarPushPop)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CalendarHold(benchmark::State& state) {
  // The classic "hold" model: steady-state push/pop on a part-full calendar.
  Rng rng(2);
  Calendar cal;
  for (int i = 0; i < 1024; ++i) cal.push(rng.uniform(0.0, 1000.0));
  double now = 0.0;
  for (auto _ : state) {
    const auto entry = cal.pop();
    now = entry.time;
    cal.push(now + rng.uniform(0.0, 1000.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarHold);

void BM_CalendarCancelHeavy(benchmark::State& state) {
  // The engine's real pop path: jobs schedule cancellable events (departure
  // guards, backfill reservations) and many get cancelled before they fire.
  // Each iteration pops one event, pushes two and cancels one of them, so
  // half of all heap entries are stale and both the cancel path and the
  // liveness check on pop are exercised; the calendar stays at 1024 live.
  Rng rng(7);
  Calendar cal;
  for (int i = 0; i < 1024; ++i) cal.push(rng.uniform(0.0, 1000.0));
  double now = 0.0;
  std::uint64_t cursor = 0;
  for (auto _ : state) {
    const auto entry = cal.pop();
    now = entry.time;
    const EventId a = cal.push(now + rng.uniform(0.0, 1000.0));
    const EventId b = cal.push(now + rng.uniform(0.0, 1000.0));
    cal.cancel((cursor & 1) != 0 ? a : b);
    ++cursor;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarCancelHeavy);

void BM_Placement(benchmark::State& state) {
  const auto rule = static_cast<PlacementRule>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<std::uint32_t>> requests;
  for (int i = 0; i < 512; ++i) {
    const auto size = static_cast<std::uint32_t>(das_s_128().sample(rng));
    requests.push_back(split_job(size, 16, 4));
  }
  std::vector<std::uint32_t> idle{17, 3, 29, 11};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(place_components(requests[i % requests.size()], idle, rule));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Placement)
    ->Arg(static_cast<int>(PlacementRule::kWorstFit))
    ->Arg(static_cast<int>(PlacementRule::kFirstFit))
    ->Arg(static_cast<int>(PlacementRule::kBestFit));

// The placement layer's per-layer row: one scheduler-style attempt — the
// in-place form Scheduler::try_place calls, with a warm scratch and a warm
// allocation buffer — over a fixed 4x32 idle snapshot. The request mix is
// half accepts, half rejects (in a seeded random order), so both the
// allocation write and the early-out reject are measured. Advisory only:
// bench/baseline.json gates the end-to-end replay rows, not this one.
void BM_PlacementAttempt(benchmark::State& state, PlacementRule rule) {
  const std::vector<std::uint32_t> idle{24, 17, 9, 3};
  const std::vector<std::uint32_t> capacities{32, 32, 32, 32};
  constexpr std::size_t kEach = 256;
  Rng rng(9);
  std::vector<std::vector<std::uint32_t>> accepts;
  std::vector<std::vector<std::uint32_t>> rejects;
  while (accepts.size() < kEach || rejects.size() < kEach) {
    const auto size = static_cast<std::uint32_t>(das_s_128().sample(rng));
    std::vector<std::uint32_t> request = split_job(size, 16, 4);
    auto& bucket = components_fit(request, idle) ? accepts : rejects;
    if (bucket.size() < kEach) bucket.push_back(std::move(request));
  }
  std::vector<std::vector<std::uint32_t>> requests = std::move(accepts);
  requests.insert(requests.end(), rejects.begin(), rejects.end());
  for (std::size_t i = requests.size() - 1; i > 0; --i) {
    std::swap(requests[i], requests[static_cast<std::size_t>(rng.uniform_int(i + 1))]);
  }
  PlacementScratch scratch;
  Allocation allocation;
  std::size_t i = 0;
  std::int64_t accepted = 0;
  for (auto _ : state) {
    const bool fits = place_components(requests[i % requests.size()], idle, capacities, rule,
                                       scratch, allocation);
    benchmark::DoNotOptimize(allocation.data());
    accepted += fits ? 1 : 0;
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["accept_ratio"] =
      static_cast<double>(accepted) / static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_PlacementAttempt, WF, PlacementRule::kWorstFit);
BENCHMARK_CAPTURE(BM_PlacementAttempt, LA, PlacementRule::kLoadAware);

void BM_SampleDasS128(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(das_s_128().sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleDasS128);

void BM_SampleDasT900(benchmark::State& state) {
  Rng rng(5);
  const auto dist = das_t_900();
  for (auto _ : state) benchmark::DoNotOptimize(dist->sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleDasT900);

// Trace ingest alone: a synthetic 100k-record log, written once with
// write_swf (round-trip-precision submit and run times, as
// make_archive_sample writes them), parsed from memory per iteration.
void BM_SwfParse(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 100000;
  Rng rng(11);
  SwfTrace trace;
  trace.header_comments = {"MaxProcs: 128", "Note: synthetic BM_SwfParse log"};
  trace.records.reserve(kRecords);
  double submit = 0.0;
  for (std::uint64_t id = 1; id <= kRecords; ++id) {
    TraceRecord rec;
    rec.job_id = id;
    submit += rng.uniform(0.0, 600.0);
    rec.submit_time = submit;
    rec.run_time = rng.uniform(0.0, 3600.0);
    rec.processors = static_cast<std::uint32_t>(rng.uniform(1.0, 129.0));
    rec.user_id = static_cast<std::uint32_t>(rng.uniform(0.0, 64.0));
    trace.records.push_back(rec);
  }
  std::ostringstream out;
  write_swf(out, trace);
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    const SwfTrace parsed = read_swf(in);
    benchmark::DoNotOptimize(parsed.records.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_SwfParse)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulation(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    const auto result = run_simulation(config);
    benchmark::DoNotOptimize(result.mean_response());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Arg(static_cast<int>(PolicyKind::kLP))
    ->Arg(static_cast<int>(PolicyKind::kSC))
    ->Unit(benchmark::kMillisecond);

// The observability zero-cost contract (BENCH_obs.json): BM_EngineHot is
// the engine with no sink attached — the body is BM_EndToEndSimulation's,
// duplicated so before/after comparisons have a stable name — and must
// stay within noise of the pre-observability baseline. BM_EngineTraced
// runs the full pipeline (ring recorder + SWF builder + metrics) and
// quantifies what tracing costs when you do ask for it.
void BM_EngineHot(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    const auto result = run_simulation(config);
    benchmark::DoNotOptimize(result.mean_response());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EngineHot)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Arg(static_cast<int>(PolicyKind::kLP))
    ->Arg(static_cast<int>(PolicyKind::kSC))
    ->Unit(benchmark::kMillisecond);

void BM_EngineTraced(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = policy;
    scenario.component_limit = 16;
    auto config = make_paper_config(scenario, 0.5, 5000, seed++);
    MulticlusterSimulation simulation(config);
    obs::RingRecorder recorder;
    obs::SwfTraceBuilder builder;
    obs::MetricsRegistry metrics;
    recorder.add_emitter(
        [&builder](const obs::TraceEvent& event) { builder.record(event); });
    simulation.set_trace_sink(&recorder);
    simulation.set_metrics(&metrics);
    const auto result = simulation.run();
    benchmark::DoNotOptimize(result.mean_response());
    benchmark::DoNotOptimize(builder.trace().records.size());
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_EngineTraced)
    ->Arg(static_cast<int>(PolicyKind::kGS))
    ->Arg(static_cast<int>(PolicyKind::kLS))
    ->Unit(benchmark::kMillisecond);

// Placement-rule ablation at the system level: does WF vs FF/BF move the
// response time? (DESIGN.md ablation; the paper fixes WF.)
void BM_PlacementRuleAblation(benchmark::State& state) {
  const auto rule = static_cast<PlacementRule>(state.range(0));
  double response = 0.0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    PaperScenario scenario;
    scenario.policy = PolicyKind::kLS;
    scenario.component_limit = 16;
    scenario.placement = rule;
    auto config = make_paper_config(scenario, 0.55, 5000, 77);
    const auto result = run_simulation(config);
    response = result.mean_response();
    jobs += result.completed_jobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["mean_response_s"] = response;
}
BENCHMARK(BM_PlacementRuleAblation)
    ->Arg(static_cast<int>(PlacementRule::kWorstFit))
    ->Arg(static_cast<int>(PlacementRule::kFirstFit))
    ->Arg(static_cast<int>(PlacementRule::kBestFit))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
