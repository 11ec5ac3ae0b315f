// Engine microbenchmarks (google-benchmark): the event core, placement
// rules (the WF/FF/BF ablation from DESIGN.md, and the per-attempt
// placement row), one backfilling scheduler round, the per-departure
// statistics folds, distribution sampling, SWF trace ingest, the trace
// lookahead window, and end-to-end simulation throughput per policy.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "core/engine.hpp"
#include "core/event_core.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/ring_recorder.hpp"
#include "obs/swf_builder.hpp"
#include "policy/scheduler_factory.hpp"
#include "stats/batch_means.hpp"
#include "stats/percentile.hpp"
#include "stats/welford.hpp"
#include "trace/swf.hpp"
#include "trace/swf_stream.hpp"
#include "util/rng.hpp"
#include "workload/das_workload.hpp"
#include "workload/job_splitter.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_workload.hpp"

namespace {

using namespace mcsim;

void BM_EventCoreHold(benchmark::State& state) {
  // The "hold" model at the engine's real occupancy: one arrival in its
  // slot plus one departure per busy processor in the heap, 1 + 128 on the
  // paper's 4x32 system.
  constexpr std::size_t kOccupancy = 129;
  Rng rng(2);
  std::vector<Job> jobs(kOccupancy);
  EventCore core;
  core.push(rng.uniform(0.0, 1000.0), Event::Kind::kArrival, &jobs.front());
  for (std::size_t i = 1; i < kOccupancy; ++i) {
    core.push(rng.uniform(0.0, 1000.0), Event::Kind::kDeparture, &jobs[i]);
  }
  for (auto _ : state) {
    // One event fired and one pushed per iteration: the dispatch pushes
    // the event back later with its kind, so the arrival keeps its slot
    // and fires whenever it is the earliest, and stops the run.
    core.run([&](const Event& event) {
      core.push(core.now() + rng.uniform(0.0, 1000.0), event.kind(), event.job);
      core.stop();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventCoreHold);

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

// One scheduling round of a backfilling stage (docs/PERFORMANCE.md,
// "Backfilling rounds"), over a state frozen at t=0 on 4x32. Eight running
// 14-processor jobs (ending at 100, 200, ..., 800 s) leave 4 processors
// idle per cluster. The queue holds a blocked 64-processor head, 15 long
// jobs of 9-16 processors that fit the 16 idle processors in aggregate but
// would delay the head's reservation, and 16 jobs wider than 16. Nothing
// starts, so every on_departure() replays the same round: the FCFS head
// attempt, then EASY's head reservation and scan, or conservative's
// profile rebuild and reservations up to its early exit. Advisory only.
class FrozenContext final : public SchedulerContext {
 public:
  FrozenContext() : system_({32, 32, 32, 32}) {}
  [[nodiscard]] const Multicluster& system() const override { return system_; }
  [[nodiscard]] double now() const override { return 0.0; }
  void start_job(JobPtr job) override { system_.allocate(job->allocation); }

 private:
  Multicluster system_;
};

void BM_BackfillRound(benchmark::State& state, BackfillMode backfill) {
  FrozenContext context;
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(
      PolicyKind::kGS, expand_policy(PolicyKind::kGS, PlacementRule::kWorstFit, backfill),
      context);
  std::deque<Job> jobs;
  const auto submit = [&](std::uint32_t size, double service) {
    Job& job = jobs.emplace_back();
    job.spec.id = jobs.size();
    job.spec.total_size = size;
    split_job_into(size, 16, 4, job.spec.components);
    job.spec.wide_area = job.spec.components.size() > 1;
    job.spec.service_time = service;
    job.spec.gross_service_time = job.spec.wide_area ? service * 1.25 : service;
    scheduler->submit(&job);
  };
  for (int k = 1; k <= 8; ++k) submit(14, 100.0 * k);
  submit(64, 500.0);
  for (std::uint32_t size = 9; size <= 16; ++size) submit(size, 5000.0);
  for (std::uint32_t size = 9; size <= 15; ++size) submit(size, 6000.0);
  for (std::uint32_t size = 17; size <= 64; size += 3) submit(size, 5000.0);
  if (scheduler->queued_jobs() != 32 || context.system().total_idle() != 16) {
    state.SkipWithError("backfill round: unexpected frozen state");
    return;
  }
  for (auto _ : state) scheduler->on_departure();
  if (scheduler->queued_jobs() != 32) state.SkipWithError("backfill round: a job started");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_BackfillRound, easy, BackfillMode::kEasy);
BENCHMARK_CAPTURE(BM_BackfillRound, conservative, BackfillMode::kConservative);

// The statistics folds of one measured departure, as the engine's
// departure handler runs them: six RunningStats adds (response, wait,
// local or global queue, size class, slowdown), one BatchMeans add (a
// count and a running mean; the raw statistics are response_all's) and
// one P2 95th-percentile add, inline from its header. Inputs cycle
// through 4096 seeded departures so the folds see varied values. Advisory
// only.
void BM_StatsFold(benchmark::State& state) {
  struct Departure {
    double wait;
    double response;
    double gross_service;
    std::uint32_t size;
    bool local;
  };
  Rng rng(13);
  std::vector<Departure> departures(4096);
  for (Departure& d : departures) {
    d.wait = rng.uniform(0.0, 5000.0);
    d.gross_service = rng.uniform(1.0, 900.0);
    d.response = d.wait + d.gross_service;
    d.size = static_cast<std::uint32_t>(das_s_128().sample(rng));
    d.local = rng.uniform(0.0, 1.0) < 0.5;
  }
  RunningStats response_all, wait_all, response_local, response_global;
  RunningStats response_small, response_medium, response_large, slowdown_all;
  BatchMeans batches(10000);
  P2Quantile p95(0.95);
  std::size_t i = 0;
  for (auto _ : state) {
    const Departure& d = departures[i++ & 4095];
    response_all.add(d.response);
    wait_all.add(d.wait);
    batches.add(d.response);
    p95.add(d.response);
    (d.local ? response_local : response_global).add(d.response);
    if (d.size <= 16) response_small.add(d.response);
    else if (d.size <= 64) response_medium.add(d.response);
    else response_large.add(d.response);
    slowdown_all.add(d.response / d.gross_service);
  }
  benchmark::DoNotOptimize(response_all.mean() + wait_all.mean() + slowdown_all.mean() +
                           p95.value() + batches.grand_mean(response_all));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StatsFold);

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

constexpr std::uint64_t kSwfLogRecords = 100000;

/// A synthetic kSwfLogRecords-record log as SWF text, written with
/// write_swf (round-trip-precision submit and run times, as
/// make_archive_sample writes them).
std::string synthetic_swf_log(const std::string& note) {
  Rng rng(11);
  SwfTrace trace;
  trace.header_comments = {"MaxProcs: 128", "Note: synthetic " + note + " log"};
  trace.records.reserve(kSwfLogRecords);
  double submit = 0.0;
  for (std::uint64_t id = 1; id <= kSwfLogRecords; ++id) {
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
  return out.str();
}

// Trace ingest alone: the synthetic 100k-record log parsed from memory per
// iteration.
void BM_SwfParse(benchmark::State& state) {
  const std::string text = synthetic_swf_log("BM_SwfParse");
  for (auto _ : state) {
    std::istringstream in(text);
    const SwfTrace parsed = read_swf(in);
    benchmark::DoNotOptimize(parsed.records.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSwfLogRecords));
}
BENCHMARK(BM_SwfParse)->Unit(benchmark::kMillisecond);

// The pre-scan alone: scan_swf_file over the same log written to a temp
// file (several kSwfScanChunkBytes chunks, so the helper thread runs).
void BM_SwfScan(benchmark::State& state) {
  const std::string text = synthetic_swf_log("BM_SwfScan");
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mcsim_bm_swf_scan.swf";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  for (auto _ : state) {
    const SwfScan scan = scan_swf_file(path.string());
    benchmark::DoNotOptimize(scan.summary.gross_work);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSwfLogRecords));
}
BENCHMARK(BM_SwfScan)->Unit(benchmark::kMillisecond);

// The trace lookahead window alone: 100k in-memory records pulled through
// TraceWorkload (default 4096-record window) from a VectorRecordSource,
// emit included, no engine. The argument is the share of stragglers in
// percent: 0 is a sorted log; 3 swaps seeded adjacent pairs (the archive
// sample's 3.1% of records arriving behind a later one); 100 reverses
// every 4096-record block, so nearly every record lands on the straggler
// heap at full depth. Advisory only.
void BM_TraceLookahead(benchmark::State& state) {
  constexpr std::size_t kRecords = 100000;
  constexpr std::size_t kBlock = TraceWorkloadConfig::kDefaultLookaheadWindow;
  const auto percent = state.range(0);
  Rng rng(17);
  std::vector<TraceRecord> records(kRecords);
  double submit = 0.0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    TraceRecord& rec = records[i];
    rec.job_id = i + 1;
    submit += rng.uniform(0.0, 60.0);
    rec.submit_time = submit;
    rec.run_time = rng.uniform(1.0, 3600.0);
    rec.processors = static_cast<std::uint32_t>(rng.uniform(1.0, 129.0));
    rec.user_id = static_cast<std::uint32_t>(rng.uniform(0.0, 64.0));
  }
  if (percent >= 100) {
    for (std::size_t start = 0; start < kRecords; start += kBlock) {
      std::reverse(records.begin() + static_cast<std::ptrdiff_t>(start),
                   records.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(kRecords, start + kBlock)));
    }
  } else {
    // Each swapped pair puts one record behind a later one.
    const double swap_chance = 2.0 * static_cast<double>(percent) / 100.0;
    for (std::size_t i = 0; i + 1 < kRecords; i += 2) {
      if (rng.uniform(0.0, 1.0) < swap_chance) std::swap(records[i], records[i + 1]);
    }
  }
  std::size_t behind = 0;
  double latest = -1.0;
  for (const TraceRecord& rec : records) {
    if (rec.submit_time < latest) ++behind;
    latest = std::max(latest, rec.submit_time);
  }
  auto config = std::make_shared<TraceWorkloadConfig>();
  const auto shared = std::make_shared<const std::vector<TraceRecord>>(std::move(records));
  config->open_source = [shared] { return std::make_unique<VectorRecordSource>(shared); };
  config->usable_records = kRecords;
  JobSpec job;
  for (auto _ : state) {
    TraceWorkload source(config);
    while (source.next(job)) benchmark::DoNotOptimize(job.arrival_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
  state.counters["straggler_frac"] =
      static_cast<double>(behind) / static_cast<double>(kRecords);
}
BENCHMARK(BM_TraceLookahead)->Arg(0)->Arg(3)->Arg(100)->Unit(benchmark::kMillisecond);

// One 5000-job paper point (limit 16, balanced, DAS-s-128).
SimulationConfig paper_point(PolicyKind policy, double utilization, std::uint64_t seed,
                             PlacementRule placement = PlacementRule::kWorstFit) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.placement = placement;
  spec.sim_jobs = 5000;
  spec.seed = seed;
  return exp::to_simulation_config(spec, utilization);
}

void BM_EndToEndSimulation(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  std::uint64_t jobs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = run_simulation(paper_point(policy, 0.5, seed++));
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
    const auto result = run_simulation(paper_point(policy, 0.5, seed++));
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
    MulticlusterSimulation simulation(paper_point(policy, 0.5, seed++));
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
    const auto result = run_simulation(paper_point(PolicyKind::kLS, 0.55, 77, rule));
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
