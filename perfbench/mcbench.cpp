// mcbench — the timing program behind perfbench/run.py.
//
// Each subcommand calls the libraries' public functions the way the `mcsim`
// CLI does and times every call from outside with steady_clock. With
// --trace=1 it also records one span per call into a layer (name, start,
// end, parent, request id), keeps the spans in memory and writes them with
// the results at exit; with --trace=0 no span is recorded, so the
// end-to-end figures carry no tracing cost. Results go to one JSON file
// (--out) that run.py reads; nothing is written while a timed section runs.
//
//   mcbench trace-scale --spec=F --utilization=U
//   mcbench reference   --specs=A,B,... --out=F
//   mcbench archive     --spec=F --seconds=T --trace=0|1 --out=F
//   mcbench sweep       --specs=A,B,... --seconds=T --trace=0|1 --out=F
//   mcbench offline     --specs=A,B,... --trace=0|1 --out=F
//   mcbench observe     --manifests=A,B,... --out=F
#include <algorithm>
#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/golden.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "trace/swf_stream.hpp"
#include "util/cli.hpp"
#include "util/rusage.hpp"
#include "util/strings.hpp"
#include "workload/trace_workload.hpp"
#include "workload/workload.hpp"

#ifndef MCBENCH_COMPILER
#define MCBENCH_COMPILER "unknown"
#endif
#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

namespace mcsim::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// -- machine-speed yardstick -------------------------------------------------

/// One thread's time for a fixed hold model on a 1024-entry binary heap
/// (std::pop_heap/push_heap, 300k operations). It shares no code with
/// mcsim; like the engine it is branch-bound and cache-resident. The host
/// is shared and the speed it grants a thread drifts by up to 2.5x over
/// seconds; measured next to a timed section on the same thread, this
/// yardstick slows with it (perfbench/README.md, "Calibration").
double heap_hold_s() {
  constexpr int kEntries = 1024;
  constexpr int kOperations = 300000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> heap(kEntries);
  for (std::uint64_t& key : heap) key = next() >> 20;
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::uint64_t checksum = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOperations; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    checksum += heap.back();
    heap.back() += next() & 0xffff;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double elapsed = seconds_between(t0, Clock::now());
  if (checksum == 0) throw std::logic_error("yardstick: empty checksum");
  return elapsed;
}

// -- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index of the causing span; -1 = root
  std::string request;
};

/// In-memory span log. Disabled, every call is a no-op returning -1, so the
/// untraced runs time exactly the calls they would make without it. Thread
/// safe: sweep points record spans from the Runner's workers.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(std::string name, int parent, std::string request = {}) {
    if (!enabled_) return -1;
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, std::move(request)});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Close span `id` and return its duration (0 when disabled).
  double close(int id) {
    if (id < 0) return 0.0;
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = now;
    return span.end - span.start;
  }

  void write_json(obs::JsonWriter& json) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    json.begin_array();
    for (const Span& span : spans_) {
      json.begin_object();
      json.key("name").value(span.name);
      json.key("start").value(span.start);
      json.key("end").value(span.end);
      json.key("parent").value(static_cast<std::int64_t>(span.parent));
      json.key("request").value(span.request);
      json.end_object();
    }
    json.end_array();
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// -- output checks -----------------------------------------------------------

/// Digest of the members `keys` of a parsed observation, in that order.
std::string projection_digest(const obs::JsonValue& observation,
                              const std::vector<std::string>& keys) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  for (const std::string& key : keys) {
    json.key(key);
    exp::write_parsed_json(json, observation.at(key));
  }
  json.end_object();
  return exp::observation_digest(obs::parse_json(out.str()));
}

/// What exp::canonical_observation records for one run: the manifest's
/// result object, the simulation clock and the event count.
void write_run_observation(obs::JsonWriter& json, const SimulationResult& result) {
  json.key("result");
  write_result_json(json, result);
  json.key("end_time").value(result.end_time);
  json.key("events_executed").value(result.events_executed);
}

const std::vector<std::string> kPointKeys = {"result", "end_time", "events_executed"};
const std::vector<std::string> kSweepKeys = {"points"};

/// The digest a timed point run must reproduce.
std::string point_digest(const SimulationResult& result) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  write_run_observation(json, result);
  json.end_object();
  return projection_digest(obs::parse_json(out.str()), kPointKeys);
}

/// The digest a timed sweep must reproduce.
std::string sweep_digest(const SweepSeries& series) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("points").begin_array();
  for (const SweepPoint& point : series.points) {
    json.begin_object();
    json.key("utilization").value(point.target_gross_utilization);
    write_run_observation(json, point.result);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return projection_digest(obs::parse_json(out.str()), kSweepKeys);
}

// -- registry readings -------------------------------------------------------

struct LayerCounts {
  double calendar_pending_mean = 0.0;
  double queue_waiting_mean = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t starts = 0;
};

LayerCounts read_registry(const obs::MetricsRegistry& metrics, double sim_now) {
  LayerCounts counts;
  const auto series_mean = [&](const std::string& name) {
    const auto it = metrics.all_series().find(name);
    return it == metrics.all_series().end() ? 0.0 : it->second.time_average(sim_now);
  };
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = metrics.counters().find(name);
    return it == metrics.counters().end() ? 0 : it->second;
  };
  counts.calendar_pending_mean = series_mean("calendar.pending");
  counts.queue_waiting_mean = series_mean("queue.waiting");
  counts.attempts = counter("placement.attempts");
  counts.rejects = counter("placement.rejects");
  counts.starts = counter("jobs.started");
  return counts;
}

void write_counts(obs::JsonWriter& json, const LayerCounts& counts) {
  json.key("calendar_pending_mean").value(counts.calendar_pending_mean);
  json.key("queue_waiting_mean").value(counts.queue_waiting_mean);
  json.key("placement_attempts").value(counts.attempts);
  json.key("placement_rejects").value(counts.rejects);
  json.key("jobs_started").value(counts.starts);
}

// -- sliced passes -----------------------------------------------------------

/// A pass over a record stream cut into slices of kSliceRecords records. At
/// each cut, on the thread making the pass, it notes the time and then takes
/// a yardstick, so run.py calibrates each slice by the yardsticks at its two
/// ends; the yardsticks' own time is in no slice. A whole pass is too long
/// for one pair of yardsticks to follow the host's speed.
class Slicer {
 public:
  static constexpr std::uint64_t kSliceRecords = 50000;

  struct Slice {
    double seconds = 0.0;
    double yardstick = 0.0;  ///< mean of the yardsticks at its two ends
  };

  /// The first slice starts now, after `opening_yardstick` was taken.
  explicit Slicer(double opening_yardstick)
      : last_yardstick_(opening_yardstick), slice_start_(Clock::now()) {}

  /// Count one record; cut after every kSliceRecords.
  void tick() {
    if (++records_ % kSliceRecords == 0) cut();
  }

  /// Close the open slice now, then take the yardstick that ends it.
  void cut() {
    const Clock::time_point end = Clock::now();
    const double yardstick = heap_hold_s();
    slices_.push_back(Slice{seconds_between(slice_start_, end),
                            0.5 * (last_yardstick_ + yardstick)});
    last_yardstick_ = yardstick;
    slice_start_ = Clock::now();
  }

  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }

  /// The slices as [[seconds, yardstick], ...].
  void write_json(obs::JsonWriter& json) const {
    json.begin_array();
    for (const Slice& slice : slices_) {
      json.begin_array().value(slice.seconds).value(slice.yardstick).end_array();
    }
    json.end_array();
  }

 private:
  std::vector<Slice> slices_;
  double last_yardstick_;
  Clock::time_point slice_start_;
  std::uint64_t records_ = 0;
};

/// A record source that ticks a Slicer on every record it hands out.
class SlicedSource final : public TraceRecordSource {
 public:
  SlicedSource(std::unique_ptr<TraceRecordSource> inner, Slicer& slicer)
      : inner_(std::move(inner)), slicer_(slicer) {}

  bool next(TraceRecord& out) override {
    slicer_.tick();
    return inner_->next(out);
  }

 private:
  std::unique_ptr<TraceRecordSource> inner_;
  Slicer& slicer_;
};

/// Records held in memory, handed out in order: a stream with no parse.
class MemorySource final : public TraceRecordSource {
 public:
  explicit MemorySource(const std::vector<TraceRecord>& records) : records_(records) {}

  bool next(TraceRecord& out) override {
    if (next_ == records_.size()) return false;
    out = records_[next_++];
    return true;
  }

 private:
  const std::vector<TraceRecord>& records_;
  std::size_t next_ = 0;
};

/// `config` with its trace records drawn from `open` through a SlicedSource.
SimulationConfig sliced_trace_config(const SimulationConfig& config, TraceSourceFactory open,
                                     Slicer& slicer) {
  SimulationConfig sliced = config;
  auto trace = std::make_shared<TraceWorkloadConfig>(*config.trace_workload);
  trace->open_source = [open = std::move(open), &slicer] {
    return std::unique_ptr<TraceRecordSource>(std::make_unique<SlicedSource>(open(), slicer));
  };
  sliced.trace_workload = std::move(trace);
  return sliced;
}

// -- isolated layer passes (traced runs only) --------------------------------

/// One SwfStreamReader pass over the log: the parse cost alone. The records
/// are kept in `records` (reserved beforehand) for the in-memory passes;
/// `slicer`, when given, is ticked once a record.
void parse_log(const std::string& path, std::vector<TraceRecord>& records, Slicer* slicer) {
  std::ifstream in(path);
  SwfStreamReader reader(in, path);
  TraceRecord record;
  while (reader.next(record)) {
    if (slicer != nullptr) slicer->tick();
    records.push_back(record);
  }
}

/// Run `pass` (which ticks the slicer once a record) as a root span of its
/// own, timed in slices, and write the slices under `key`.
template <typename Pass>
void sliced_pass(obs::JsonWriter& json, const std::string& key, Tracer& tracer,
                 const std::string& span_name, const std::string& request, Pass&& pass) {
  Slicer slicer(heap_hold_s());
  const int span = tracer.open(span_name, -1, request);
  pass(slicer);
  tracer.close(span);
  slicer.cut();
  json.key(key);
  slicer.write_json(json);
}

/// The config's streaming trace source pulled to exhaustion with no engine:
/// the usable filter, lookahead re-sort and job splitting, plus the parse
/// when the source reads the log.
std::uint64_t pull_trace(const SimulationConfig& config) {
  TraceWorkload source(config.trace_workload);
  JobSpec job;
  while (source.next(job)) {
  }
  return source.jobs_emitted();
}

/// The synthetic draws of one run, with no engine.
void generate_jobs(const SimulationConfig& config) {
  WorkloadGenerator generator(config.workload, config.seed);
  for (std::uint64_t i = 0; i < config.total_jobs; ++i) {
    const JobSpec job = generator.next();
    if (job.total_size == 0) throw std::runtime_error("generated an empty job");
  }
}

// -- shared plumbing ---------------------------------------------------------

std::vector<std::string> list_option(const CliParser& parser, const std::string& name) {
  std::vector<std::string> items;
  for (const std::string& item : split(parser.get(name), ',')) {
    if (!item.empty()) items.push_back(item);
  }
  if (items.empty()) throw CliUsageError("--" + name + " needs at least one value");
  return items;
}

void write_header(obs::JsonWriter& json, const Tracer& tracer, double seconds) {
  json.key("compiler").value(MCBENCH_COMPILER);
  json.key("build_type").value(MCBENCH_BUILD_TYPE);
  json.key("traced").value(tracer.enabled());
  json.key("seconds").value(seconds);
}

void write_footer(obs::JsonWriter& json, const Tracer& tracer) {
  json.key("peak_rss_bytes").value(peak_rss_bytes());
  json.key("spans");
  tracer.write_json(json);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// -- subcommands -------------------------------------------------------------

/// The arrival scale at which a trace spec's log offers gross utilization
/// --utilization on the spec's machine: the scale a sweep of the spec uses
/// at that point.
int cmd_trace_scale(const CliParser& parser) {
  exp::ScenarioSpec spec = exp::load_scenario(parser.get("spec"));
  spec.mode = exp::RunMode::kSweep;
  const SimulationConfig config =
      exp::to_simulation_config(spec, parser.get_double("utilization"));
  std::cout << format_double_roundtrip(config.trace_workload->arrival_scale) << '\n';
  return 0;
}

/// The reference digests, from the golden gate's canonical observation of
/// each spec; computed in a process of its own before anything is timed.
int cmd_reference(const CliParser& parser) {
  const std::vector<std::string> paths = list_option(parser, "specs");
  constexpr unsigned kWorkers = 2;  // the benchmark's load limit
  exp::Runner runner(kWorkers);
  const std::vector<std::string> digests = runner.map(paths.size(), [&](std::size_t i) {
    const exp::ScenarioSpec spec = exp::load_scenario(paths[i]);
    const obs::JsonValue observation =
        obs::parse_json(exp::canonical_observation(spec));
    return projection_digest(observation,
                             spec.mode == exp::RunMode::kSweep ? kSweepKeys : kPointKeys);
  });
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  for (std::size_t i = 0; i < paths.size(); ++i) json.key(paths[i]).value(digests[i]);
  json.end_object();
  write_file(parser.get("out"), out.str());
  return 0;
}

/// archive_replay: scan + config build (set-up), then streaming replay and
/// one manifest written to memory (the timed run), repeated for --seconds.
int cmd_archive(const CliParser& parser, Tracer& tracer) {
  const std::string spec_path = parser.get("spec");
  const double seconds = parser.get_double("seconds");
  const exp::ScenarioSpec spec = exp::load_scenario(spec_path);
  const auto log_bytes = static_cast<double>(std::filesystem::file_size(spec.trace_path));

  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  write_header(json, tracer, seconds);
  json.key("log_bytes").value(log_bytes);
  json.key("reps").begin_array();
  const Clock::time_point begin = Clock::now();
  // A traced rep adds five isolated passes, so it is long enough alone.
  const int min_reps = tracer.enabled() ? 1 : 3;
  for (int rep = 0; rep < min_reps || seconds_between(begin, Clock::now()) < seconds; ++rep) {
    const std::string request = "rep" + std::to_string(rep);
    const double yard_before = heap_hold_s();
    const int rep_span = tracer.open("bench.replay", -1, request);

    const Clock::time_point t0 = Clock::now();
    const int config_span = tracer.open("exp.to_simulation_config", rep_span, request);
    const SimulationConfig config = exp::to_simulation_config(spec);
    tracer.close(config_span);
    const Clock::time_point t1 = Clock::now();
    const double yard_between = heap_hold_s();

    // The engine reads the log through a SlicedSource; the last slice ends
    // after the manifest.
    Slicer slicer(yard_between);
    const SimulationConfig sliced =
        sliced_trace_config(config, config.trace_workload->open_source, slicer);
    const int run_span = tracer.open("core.run", rep_span, request);
    MulticlusterSimulation simulation(sliced);
    obs::MetricsRegistry metrics;
    simulation.set_metrics(&metrics);
    const SimulationResult result = simulation.run();
    tracer.close(run_span);
    const Clock::time_point t2 = Clock::now();

    const int manifest_span = tracer.open("exp.write_run_manifest", rep_span, request);
    std::ostringstream manifest;
    ManifestInfo info;
    info.command_line = "mcsim run " + spec_path;
    info.scenario = &spec;
    write_run_manifest(manifest, config, result, &metrics, info);
    const std::string manifest_text = manifest.str();
    tracer.close(manifest_span);
    const Clock::time_point t3 = Clock::now();
    tracer.close(rep_span);
    slicer.cut();

    json.begin_object();
    json.key("setup_s").value(seconds_between(t0, t1));
    json.key("setup_yardstick_s").value(0.5 * (yard_before + yard_between));
    json.key("slices");
    slicer.write_json(json);
    json.key("manifest_s").value(seconds_between(t2, t3));
    json.key("manifest_yardstick_s").value(slicer.slices().back().yardstick);
    json.key("events").value(result.events_executed);
    json.key("jobs").value(result.completed_jobs);
    json.key("manifest_bytes").value(static_cast<std::uint64_t>(manifest_text.size()));
    json.key("digest").value(point_digest(result));
    write_counts(json, read_registry(metrics, result.end_time));
    if (tracer.enabled()) {
      // Isolated passes over the same log, each a root span of its own.
      // The in-memory passes replay the records the parse pass kept, so the
      // engine's self time (in-memory run minus in-memory pull) is measured
      // apart from the run above, not derived from it.
      SwfScan scan;
      sliced_pass(json, "scan", tracer, "trace.scan_swf_file", request,
                  [&](Slicer&) { scan = scan_swf_file(spec.trace_path); });
      std::vector<TraceRecord> records;
      records.reserve(scan.summary.total_records);
      sliced_pass(json, "parse", tracer, "trace.SwfStreamReader", request,
                  [&](Slicer& s) { parse_log(spec.trace_path, records, &s); });
      std::uint64_t pulled = 0;
      sliced_pass(json, "pull", tracer, "workload.TraceWorkload.pull", request, [&](Slicer& s) {
        pulled = pull_trace(sliced_trace_config(config, config.trace_workload->open_source, s));
      });
      const TraceSourceFactory from_memory = [&records] {
        return std::unique_ptr<TraceRecordSource>(std::make_unique<MemorySource>(records));
      };
      std::uint64_t pulled_from_memory = 0;
      sliced_pass(json, "memory_pull", tracer, "workload.TraceWorkload.pull", request,
                  [&](Slicer& s) {
                    pulled_from_memory = pull_trace(sliced_trace_config(config, from_memory, s));
                  });
      SimulationResult memory_result;
      sliced_pass(json, "memory_run", tracer, "core.run", request, [&](Slicer& s) {
        MulticlusterSimulation from_records(sliced_trace_config(config, from_memory, s));
        obs::MetricsRegistry memory_metrics;
        from_records.set_metrics(&memory_metrics);
        memory_result = from_records.run();
      });
      json.key("memory_digest").value(point_digest(memory_result));
      if (records.size() != scan.summary.total_records ||
          pulled != scan.summary.usable_records || pulled_from_memory != pulled) {
        throw std::runtime_error("isolated passes disagree with the scan");
      }
    }
    json.end_object();
  }
  json.end_array();
  write_footer(json, tracer);
  json.end_object();
  write_file(parser.get("out"), out.str());
  return 0;
}

struct PointTiming {
  double start = 0.0;  ///< seconds since the first rep began
  double end = 0.0;
  double yardstick = 0.0;  ///< mean of the yardsticks before and after
  std::size_t worker = 0;  ///< hash of the worker thread's id
};

/// The first `count` CPUs the process may run on.
std::vector<int> first_cpus(unsigned count) {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < count; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restrict the calling thread, and every thread it starts later, to `cpus`.
void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np");
  }
}

/// The mean of one yardstick on each of `cpus`, taken on the calling
/// thread, which is restricted to `cpus` again afterwards.
double cpus_yardstick(const std::vector<int>& cpus) {
  double sum = 0.0;
  for (const int cpu : cpus) {
    pin_this_thread({cpu});
    sum += heap_hold_s();
  }
  pin_this_thread(cpus);
  return sum / static_cast<double>(cpus.size());
}

/// Run `work` on pool workers restricted to `cpus` and return the mean of
/// the yardsticks taken on `cpus` right before it, right after it, and
/// every kPeriod while it runs, on one of `cpus` in turn. A sweep call runs
/// for seconds, too long for the yardsticks at its two ends alone to follow
/// the host's speed, and one vCPU's speed drifts apart from another's: a
/// yardstick on a CPU the workers do not use follows that CPU, not theirs.
/// A sample taken while the sweep runs shares its CPU with a worker, so it
/// reads about twice an idle CPU's, and the workers lose a few percent of
/// their time to the samples.
template <typename Work>
double sampled_yardstick(const std::vector<int>& cpus, Work&& work) {
  constexpr auto kPeriod = std::chrono::milliseconds(40);
  std::vector<double> samples{cpus_yardstick(cpus)};
  std::mutex mutex;
  std::condition_variable wake;
  bool done = false;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (std::size_t i = 0; !wake.wait_for(lock, kPeriod, [&] { return done; }); ++i) {
      lock.unlock();
      pin_this_thread({cpus[i % cpus.size()]});
      const double sample = heap_hold_s();
      lock.lock();
      samples.push_back(sample);
    }
  });
  const auto stop = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    wake.notify_one();
    sampler.join();
  };
  try {
    work();
  } catch (...) {
    stop();
    throw;
  }
  stop();
  samples.push_back(cpus_yardstick(cpus));
  double sum = 0.0;
  for (const double sample : samples) sum += sample;
  return sum / static_cast<double>(samples.size());
}

/// The sweep's set-up: every spec's validation and per-point config builds,
/// and one runner start.
void sweep_setup(const std::vector<exp::ScenarioSpec>& specs, Tracer& tracer, int parent) {
  for (const exp::ScenarioSpec& spec : specs) {
    exp::validate(spec);
    for (const double u : spec.sweep_grid()) {
      const int span = tracer.open("exp.to_simulation_config", parent);
      (void)exp::to_simulation_config(spec, u);
      tracer.close(span);
    }
  }
  const exp::Runner runner(specs.front().parallelism);
}

/// Traced only: every point of each spec fanned out over an exp::Runner of
/// the spec's width, as run_sweep's speculative path does, each point run
/// with a metrics registry and timed on its worker between two yardsticks
/// taken on that thread. It yields the per-point and per-runner figures
/// run_sweep does not expose.
void write_point_pass(obs::JsonWriter& json, const std::vector<exp::ScenarioSpec>& specs,
                      const std::vector<std::string>& paths, Tracer& tracer,
                      const std::string& request, Clock::time_point begin) {
  std::vector<std::string> digests;
  json.key("points").begin_array();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const exp::ScenarioSpec& spec = specs[s];
    const std::vector<double> grid = spec.sweep_grid();
    exp::Runner runner(spec.parallelism);
    const int map_span = tracer.open("exp.Runner.map", -1, request);
    std::vector<PointTiming> timings(grid.size());
    std::vector<LayerCounts> counts(grid.size());
    const std::vector<SimulationResult> results = runner.map(grid.size(), [&](std::size_t i) {
      const SimulationConfig config = exp::to_simulation_config(spec, grid[i]);
      const double yard_before = heap_hold_s();
      const Clock::time_point start = Clock::now();
      const int span = tracer.open("core.run", map_span, spec.label() + "@" + format_util(grid[i]));
      MulticlusterSimulation simulation(config);
      obs::MetricsRegistry metrics;
      simulation.set_metrics(&metrics);
      SimulationResult result = simulation.run();
      tracer.close(span);
      const Clock::time_point end = Clock::now();
      counts[i] = read_registry(metrics, result.end_time);
      timings[i] = PointTiming{seconds_between(begin, start), seconds_between(begin, end),
                               0.5 * (yard_before + heap_hold_s()),
                               std::hash<std::thread::id>{}(std::this_thread::get_id())};
      return result;
    });
    tracer.close(map_span);
    SweepSeries series;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      json.begin_object();
      json.key("spec").value(static_cast<std::uint64_t>(s));
      json.key("start").value(timings[i].start);
      json.key("end").value(timings[i].end);
      json.key("yardstick_s").value(timings[i].yardstick);
      json.key("worker").value(static_cast<std::uint64_t>(timings[i].worker));
      json.key("unstable").value(results[i].unstable);
      json.key("jobs").value(results[i].completed_jobs);
      json.key("events").value(results[i].events_executed);
      write_counts(json, counts[i]);
      json.end_object();
      if (series.points.empty() || !series.points.back().result.unstable) {
        series.points.push_back(SweepPoint{grid[i], results[i]});
      }
    }
    digests.push_back(sweep_digest(series));
  }
  json.end_array();
  json.key("point_digests").begin_object();
  for (std::size_t s = 0; s < specs.size(); ++s) json.key(paths[s]).value(digests[s]);
  json.end_object();
}

/// fig3_sweep: each spec swept by exp::run_sweep, one after another, as
/// `mcsim run` sweeps a spec, and each sweep timed between two yardsticks.
/// Set-up (spec validation, the per-point config builds and runner start)
/// is timed on its own.
int cmd_sweep(const CliParser& parser, Tracer& tracer) {
  const std::vector<std::string> paths = list_option(parser, "specs");
  const double seconds = parser.get_double("seconds");
  std::vector<exp::ScenarioSpec> specs;
  for (const std::string& path : paths) specs.push_back(exp::load_scenario(path));
  // Every thread from here on, the runners' workers included, runs on the
  // CPUs the yardsticks are taken on.
  const std::vector<int> cpus = first_cpus(specs.front().parallelism);
  pin_this_thread(cpus);

  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  write_header(json, tracer, seconds);

  // Set-up alone is a fraction of a millisecond, so it is repeated and
  // run.py reports the median.
  Tracer untraced(false, Clock::now());
  const double setup_yard_before = heap_hold_s();
  json.key("setup_s").begin_array();
  constexpr int kSetupRepeats = 1001;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    sweep_setup(specs, untraced, -1);
    json.value(seconds_between(t0, Clock::now()));
  }
  json.end_array();
  json.key("setup_yardstick_s").value(0.5 * (setup_yard_before + heap_hold_s()));

  json.key("reps").begin_array();
  const Clock::time_point begin = Clock::now();
  constexpr int kMinReps = 2;
  for (int rep = 0; rep < kMinReps || seconds_between(begin, Clock::now()) < seconds; ++rep) {
    const std::string request = "rep" + std::to_string(rep);
    json.begin_object();
    if (tracer.enabled()) {
      const int setup_span = tracer.open("bench.setup", -1, request);
      sweep_setup(specs, tracer, setup_span);
      tracer.close(setup_span);
    }
    const int rep_span = tracer.open("bench.sweep", -1, request);
    json.key("sweeps").begin_array();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      SweepSeries series;
      Clock::time_point start;
      Clock::time_point end;
      const double yardstick = sampled_yardstick(cpus, [&] {
        const int span = tracer.open("exp.run_sweep", rep_span, specs[s].label());
        start = Clock::now();
        series = run_sweep(specs[s]);
        end = Clock::now();
        tracer.close(span);
      });
      std::uint64_t events = 0;
      for (const SweepPoint& point : series.points) events += point.result.events_executed;
      json.begin_object();
      json.key("spec").value(paths[s]);
      json.key("seconds").value(seconds_between(start, end));
      json.key("yardstick_s").value(yardstick);
      json.key("events").value(events);
      json.key("runs").value(static_cast<std::uint64_t>(series.points.size()));
      json.key("digest").value(sweep_digest(series));
      json.end_object();
    }
    json.end_array();
    tracer.close(rep_span);
    if (tracer.enabled()) {
      write_point_pass(json, specs, paths, tracer, request, begin);
      // The synthetic draws of one full point, with no engine.
      const SimulationConfig config =
          exp::to_simulation_config(specs.front(), specs.front().sweep_grid().front());
      sliced_pass(json, "generate", tracer, "workload.WorkloadGenerator", request,
                  [&](Slicer&) { generate_jobs(config); });
      json.key("generate_jobs").value(config.total_jobs);
    }
    json.end_object();
  }
  json.end_array();
  write_footer(json, tracer);
  json.end_object();
  write_file(parser.get("out"), out.str());
  return 0;
}

/// serve_mixed, offline side: every distinct spec run in-process exactly as
/// the daemon runs it, for the observation a served manifest must match and
/// the in-process time a served latency is compared against.
int cmd_offline(const CliParser& parser, Tracer& tracer) {
  const std::vector<std::string> paths = list_option(parser, "specs");
  constexpr int kRepeats = 3;
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  write_header(json, tracer, 0.0);
  json.key("specs").begin_object();
  for (const std::string& path : paths) {
    // The spec exactly as the daemon holds it after parsing the request.
    exp::ScenarioSpec spec = exp::scenario_from_json(obs::parse_json_file(path));
    spec.parallelism = 1;
    json.key(path).begin_object();
    json.key("runs").begin_array();
    std::string observation;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const SimulationConfig config = exp::to_simulation_config(spec);
      const Clock::time_point t1 = Clock::now();
      MulticlusterSimulation simulation(config);
      obs::MetricsRegistry metrics;
      simulation.set_metrics(&metrics);
      const SimulationResult result = simulation.run();
      const Clock::time_point t2 = Clock::now();
      std::ostringstream manifest;
      ManifestInfo info;
      info.command_line = "mcsim serve: " + spec.label();
      info.scenario = &spec;
      write_run_manifest(manifest, config, result, &metrics, info);
      const std::string manifest_text = manifest.str();
      const Clock::time_point t3 = Clock::now();
      observation = exp::observation_digest(
          obs::parse_json(exp::manifest_observation(obs::parse_json(manifest_text))));
      json.begin_object();
      json.key("config_s").value(seconds_between(t0, t1));
      json.key("run_s").value(seconds_between(t1, t2));
      json.key("manifest_s").value(seconds_between(t2, t3));
      json.key("total_s").value(seconds_between(t0, t3));
      json.key("manifest_bytes").value(static_cast<std::uint64_t>(manifest_text.size()));
      json.end_object();
    }
    json.end_array();
    json.key("observation").value(observation);
    if (tracer.enabled()) {
      const SimulationConfig config = exp::to_simulation_config(spec);
      if (spec.is_trace()) {
        const int scan_span = tracer.open("trace.scan_swf_file", -1, path);
        const SwfScan scan = scan_swf_file(spec.trace_path);
        json.key("scan_s").value(tracer.close(scan_span));
        std::vector<TraceRecord> records;
        records.reserve(scan.summary.total_records);
        const int parse_span = tracer.open("trace.SwfStreamReader", -1, path);
        parse_log(spec.trace_path, records, nullptr);
        json.key("parse_s").value(tracer.close(parse_span));
        json.key("log_bytes").value(
            static_cast<double>(std::filesystem::file_size(spec.trace_path)));
        const int pull_span = tracer.open("workload.TraceWorkload.pull", -1, path);
        (void)pull_trace(config);
        json.key("pull_s").value(tracer.close(pull_span));
      } else {
        const int generate_span = tracer.open("workload.WorkloadGenerator", -1, path);
        generate_jobs(config);
        json.key("generate_s").value(tracer.close(generate_span));
      }
    }
    json.end_object();
  }
  json.end_object();
  write_footer(json, tracer);
  json.end_object();
  write_file(parser.get("out"), out.str());
  return 0;
}

/// exp::manifest_observation digests of served manifests, each file one
/// raw `result` response line of the daemon.
int cmd_observe(const CliParser& parser) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  for (const std::string& path : list_option(parser, "manifests")) {
    const obs::JsonValue response = obs::parse_json_file(path);
    json.key(path).value(exp::observation_digest(
        obs::parse_json(exp::manifest_observation(response.at("manifest")))));
  }
  json.end_object();
  write_file(parser.get("out"), out.str());
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) throw CliUsageError("usage: mcbench <subcommand> [options]");
  const std::string command = argv[1];
  CliParser parser("mcbench " + command + ": perfbench timing program");
  parser.add_option("out", "", "result JSON path");
  parser.add_option("trace", "0", "1 = record spans");
  parser.add_option("seconds", "10", "measure at least this long");
  parser.add_option("spec", "", "scenario file");
  parser.add_option("specs", "", "comma-separated scenario files");
  parser.add_option("manifests", "", "comma-separated served manifests");
  parser.add_option("utilization", "0.5", "target gross utilization");
  if (!parser.parse(argc - 1, argv + 1)) return 0;
  Tracer tracer(parser.get_uint("trace") != 0, Clock::now());
  if (command == "trace-scale") return cmd_trace_scale(parser);
  if (command == "reference") return cmd_reference(parser);
  if (command == "archive") return cmd_archive(parser, tracer);
  if (command == "sweep") return cmd_sweep(parser, tracer);
  if (command == "offline") return cmd_offline(parser, tracer);
  if (command == "observe") return cmd_observe(parser);
  throw CliUsageError("unknown subcommand: " + command);
}

}  // namespace
}  // namespace mcsim::bench

int main(int argc, char** argv) {
  try {
    return mcsim::bench::dispatch(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "mcbench: " << error.what() << '\n';
    return mcsim::cli_exit_code(error);
  }
}
