/// \file
/// \brief ScenarioSpec: the declarative, serializable description of one
/// simulation experiment — the single source of truth every layer
/// consumes.
///
/// A spec names everything a run depends on: the system layout (cluster
/// sizes and speeds), the workload model, the policy stack (scheduling
/// policy, placement rule, backfill, queue discipline), the seed, run
/// lengths, and the mode-specific parameters (point / sweep / saturation /
/// replications). One construction path — to_simulation_config() /
/// build_simulation() — turns a spec into a runnable engine. The CLI flag
/// parsers, the bench harnesses and the examples all build a spec, so a
/// scenario JSON file, a CLI invocation and a run manifest describe runs
/// identically and reproduce them bit-exactly (docs/SCENARIOS.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "core/engine.hpp"
#include "trace/swf_stream.hpp"
#include "workload/das_workload.hpp"
#include "workload/trace_source.hpp"

namespace mcsim::obs {
class JsonValue;
class JsonWriter;
}  // namespace mcsim::obs

namespace mcsim::exp {

/// What a scenario runs: one load point, a utilization sweep, the
/// constant-backlog saturation estimator, or an independent-replication
/// set.
enum class RunMode : std::uint8_t { kPoint, kSweep, kSaturation, kReplications };

const char* run_mode_name(RunMode mode);
/// Parse a run-mode name ("point", "sweep", "saturation", "replications";
/// case-insensitive). Throws std::invalid_argument otherwise.
RunMode parse_run_mode(const std::string& name);

struct ScenarioSpec {
  /// Version of the scenario JSON layout. Bump on any key rename/removal;
  /// adding keys is backward-compatible and needs no bump.
  static constexpr std::int64_t kSchemaVersion = 1;

  /// Optional human-readable name; label() falls back to the derived
  /// paper-style label ("LS limit=16 unbalanced DAS-s-128", or for a trace
  /// replay "LS limit=16 ctc_style.swf") when empty.
  std::string name;

  // -- system -----------------------------------------------------------
  /// Multicluster layout. Empty = the DAS default for the policy (4x32;
  /// 1x128 for SC).
  std::vector<std::uint32_t> cluster_sizes;
  /// Relative per-cluster service rates; empty = homogeneous (the paper).
  std::vector<double> cluster_speeds;

  // -- workload ---------------------------------------------------------
  /// Total-job-size distribution: "das-s-128" or "das-s-64".
  std::string size_model = "das-s-128";
  std::uint32_t component_limit = 16;
  double extension_factor = das::kExtensionFactor;
  /// false (with no explicit queue_weights): one hot local queue gets 40%
  /// of local submissions, the others split the rest (the paper's
  /// unbalanced setting; requires the 4-cluster DAS layout).
  bool balanced_queues = true;
  /// Explicit per-cluster submission weights; overrides balanced_queues.
  std::vector<double> queue_weights;
  /// Request structure (unordered reproduces the paper).
  RequestType request_type = RequestType::kUnordered;
  /// Non-empty switches the workload to trace replay (`workload.type:
  /// "trace"`): arrivals, sizes and runtimes come from this SWF log
  /// instead of the synthetic distributions (size_model and the arrival
  /// process are then unused; component_limit/extension_factor still
  /// drive the splitting). Relative paths in scenario files resolve
  /// against the file's directory; manifests keep theirs (load_scenario).
  std::string trace_path;
  /// Trace replay: multiplies every submit time (< 1 compresses the trace
  /// and raises the offered load; the sweep mode ignores this and derives
  /// a scale per target utilization).
  double trace_scale = 1.0;
  /// Trace replay: bounded-lookahead window of the streaming reader (0 =
  /// TraceWorkloadConfig::kDefaultLookaheadWindow). Raise it for archive
  /// logs whose submit order is scrambled beyond the default window
  /// (docs/WORKLOADS.md).
  std::uint32_t trace_lookahead = 0;

  // -- policy -----------------------------------------------------------
  /// The policy alias: names the canonical pipeline composition this spec
  /// starts from (docs/SCHEDULING.md). The knobs below tune its stages;
  /// queue_structure/coallocation override the structural stages outright.
  PolicyKind policy = PolicyKind::kGS;
  PlacementRule placement = PlacementRule::kWorstFit;
  /// Extension (paper: kNone). Needs the single-global-queue structure.
  BackfillMode backfill = BackfillMode::kNone;
  /// Extension (paper: kFcfs). Composes with every queue structure.
  QueueDiscipline discipline = QueueDiscipline::kFcfs;
  /// Pipeline override: replace the policy's canonical queue structure
  /// (`policy.pipeline.queue` in scenario JSON). Unset = the expansion.
  std::optional<QueueStructure> queue_structure;
  /// Pipeline override: replace the policy's canonical co-allocation rule
  /// (`policy.pipeline.coallocation`). Unset = the expansion.
  std::optional<CoAllocationRule> coallocation;

  // -- run --------------------------------------------------------------
  RunMode mode = RunMode::kPoint;
  /// Target gross utilization (point and replications modes).
  double utilization = 0.5;
  /// Explicit sweep grid; empty = grid(sweep_from, sweep_to, sweep_step).
  std::vector<double> utilization_grid;
  double sweep_from = 0.30;
  double sweep_to = 0.80;
  double sweep_step = 0.05;
  /// Arrivals per run (point/sweep/replications).
  std::uint64_t sim_jobs = 30000;
  /// Independent replications (replications mode).
  std::uint32_t replications = 10;
  /// Completions / constant backlog (saturation mode).
  std::uint64_t saturation_completions = 40000;
  std::uint64_t saturation_backlog = 200;
  std::uint64_t seed = 1;
  /// Not read in saturation mode, which discards a fixed 20% of completions.
  double warmup_fraction = 0.1;
  std::uint64_t batch_count = 20;
  /// exp::Runner width for sweep/replications fan-out (`--jobs`; 0 = all
  /// cores). Single-run modes ignore it: each run is one serial engine.
  unsigned parallelism = 1;

  /// True when this spec replays a recorded trace instead of drawing the
  /// synthetic workload.
  [[nodiscard]] bool is_trace() const { return !trace_path.empty(); }

  /// The full pipeline composition this spec describes: the policy's
  /// canonical expansion with the tuning knobs applied, then the
  /// queue_structure/coallocation overrides.
  [[nodiscard]] PipelineSpec pipeline() const;

  /// Whether the spec overrides a structural stage of the policy's
  /// canonical expansion (and so needs the pipeline JSON object).
  [[nodiscard]] bool has_pipeline_override() const {
    return queue_structure.has_value() || coallocation.has_value();
  }

  [[nodiscard]] std::string label() const;

  /// The sweep grid this spec describes: utilization_grid when given,
  /// otherwise make_sweep_grid(sweep_from, sweep_to, sweep_step), which
  /// throws past kMaxSweepPoints.
  [[nodiscard]] std::vector<double> sweep_grid() const;

  bool operator==(const ScenarioSpec&) const = default;
};

/// Check the spec for internal consistency (known size model, aligned
/// weights/speeds, extensions restricted to the single-queue policies,
/// positive run lengths, ...). Throws std::invalid_argument naming the
/// offending field.
void validate(const ScenarioSpec& spec);

/// How a trace path becomes a validated stream of records. The default
/// resolver scans and then re-reads the file (scan_swf_file +
/// SwfFileStream); the experiment daemon's warm cache substitutes one that
/// serves both from memory (src/serve/trace_cache.hpp). The scan and the
/// records a resolver returns must describe the same log — the derived
/// arrival scale, validation counts and manifest provenance all come from
/// the scan, so a mismatched pair would silently skew results.
struct ResolvedTrace {
  SwfScan scan;
  /// Fresh per-engine record stream over the log, in file order (unusable
  /// records may be dropped). Every resolver's records then pass through
  /// the same lookahead window, so a log too scrambled for the spec's
  /// `lookahead` fails the same way whichever resolver opened it. Must be
  /// non-null.
  TraceSourceFactory open_source;
};
using TraceResolver = std::function<ResolvedTrace(const std::string& path)>;

/// The resolver to_simulation_config uses when none is given: one
/// O(1)-memory validating scan, then a fresh SwfFileStream per engine.
ResolvedTrace resolve_trace_from_file(const std::string& path);

/// For a caller that builds many configs from one spec (sweep points,
/// replications): validates the spec, scans its trace once, now, and
/// returns a resolver that hands every config that one scan (each engine
/// still opens its own stream). Null for a spec without a trace.
TraceResolver resolve_trace_once(const ScenarioSpec& spec);

/// THE construction path from a spec to an engine config — every layer
/// (CLI, scenario files, manifests, bench harnesses, examples)
/// funnels through here, which is what makes their runs bit-identical.
/// The one-argument form uses spec.utilization; the two-argument form is
/// for sweep points. Saturation mode yields a constant-backlog config
/// (SimulationConfig::backlog). The three-argument form lets a caller
/// substitute how trace paths are opened (nullptr resolver = the
/// file-backed default); results are resolver-invariant by the
/// streaming-equivalence contract (tests/serve_server_test.cpp pins the
/// warm-cache case).
SimulationConfig to_simulation_config(const ScenarioSpec& spec);
SimulationConfig to_simulation_config(const ScenarioSpec& spec, double utilization);
SimulationConfig to_simulation_config(const ScenarioSpec& spec, double utilization,
                                      const TraceResolver& resolve_trace);

/// Build a ready-to-run engine for the spec (at spec.utilization).
/// Callers attach sinks/metrics and call run().
std::unique_ptr<MulticlusterSimulation> build_simulation(const ScenarioSpec& spec);

/// Write the spec as a JSON object on an already-open writer (used to
/// embed the spec in run manifests).
void write_scenario_json(obs::JsonWriter& json, const ScenarioSpec& spec);

/// Write a standalone scenario document (the `mcsim run` input format).
void write_scenario_file(std::ostream& out, const ScenarioSpec& spec);

/// Rebuild a spec from a parsed scenario object. Missing keys keep their
/// defaults; unknown keys are rejected (typo protection). Throws
/// std::invalid_argument on schema violations.
ScenarioSpec scenario_from_json(const obs::JsonValue& value);

/// Load a spec from a file holding either a scenario document or a run
/// manifest with an embedded "scenario" object (`mcsim run FILE`). A
/// scenario's relative trace path resolves against the file's directory;
/// a manifest's scenario is taken verbatim (its path was resolved when the
/// recorded run loaded it).
ScenarioSpec load_scenario(const std::string& path);

}  // namespace mcsim::exp
