/// \file
/// \brief The JSON run manifest: one self-describing document per
/// simulation run carrying provenance (code version, command line, seeds,
/// wall/sim clocks), the full configuration, the result summary and — when
/// a MetricsRegistry was attached — every collected metric.
///
/// Schema: see docs/TRACING.md, "The run manifest". All doubles are
/// printed with max_digits10 precision, so a consumer parsing them with
/// strtod recovers the identical bits; `result.mean_response` in
/// particular can be compared bit-exactly against a re-computation from
/// the exported SWF trace.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "core/engine.hpp"
#include "obs/metrics.hpp"

namespace mcsim {

namespace obs {
class JsonWriter;
}  // namespace obs

namespace exp {
struct ScenarioSpec;
}  // namespace exp

/// Version of the manifest JSON layout. Bump on any key rename/removal;
/// adding keys is backward-compatible and needs no bump.
inline constexpr std::int64_t kManifestSchemaVersion = 1;

/// The source-tree version compiled into the binary (`git describe
/// --always --dirty --tags` at configure time; "unknown" outside a git
/// checkout).
const char* git_describe();

/// Extra run context the engine does not know about.
struct ManifestInfo {
  /// The invoking command line, argv joined with spaces (may be empty).
  std::string command_line;
  /// Path of the exported SWF trace; empty when no trace was written.
  std::string trace_path;
  /// Records in the exported trace (completed jobs observed by the sink).
  std::uint64_t trace_records = 0;
  /// Lifecycle events recorded / dropped by the ring recorder.
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  /// When set, the manifest embeds this spec verbatim as its "scenario"
  /// object, which is what makes the manifest replayable: `mcsim run
  /// manifest.json` rebuilds the identical run from it (exp::load_scenario
  /// accepts manifests directly).
  const exp::ScenarioSpec* scenario = nullptr;
};

/// Write the manifest's result-statistics object ("result") on an
/// already-open writer. Every field is deterministic given the config —
/// the golden-run gate (exp/golden.hpp) pins exactly this object.
void write_result_json(obs::JsonWriter& json, const SimulationResult& result);

/// Write the manifest for one run as a JSON document. `metrics` may be
/// null (the "metrics" object is then omitted); `info` fields that are
/// empty/zero are omitted likewise.
void write_run_manifest(std::ostream& out, const SimulationConfig& config,
                        const SimulationResult& result,
                        const obs::MetricsRegistry* metrics, const ManifestInfo& info);

}  // namespace mcsim
