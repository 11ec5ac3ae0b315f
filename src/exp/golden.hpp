/// \file
/// \brief Golden-run verification: pin every checked-in scenario's numbers
/// in version control and gate changes on reproducing them.
///
/// A *golden record* is a JSON document per scenario holding the canonical
/// observation of its run — the deterministic result statistics (per run
/// mode), the scheduler metrics, and a digest of the exported SWF trace
/// stream — plus a digest over the whole observation and provenance
/// (git describe, compiler, build type) recording what generated it.
/// Everything wall-clock-dependent (wall_seconds, events/sec) is excluded,
/// so on a fixed build the observation is a pure function of the scenario.
///
/// The comparison is bit-exact: every number must reproduce the identical
/// bits (a different spelling of the same double passes). CI runs it on
/// both GCC and Clang — cross-compiler determinism is a gated property of
/// this codebase.
///
/// `mcsim verify <golden-dir>` drives verify_goldens() over every scenario
/// under data/scenarios/, fans the runs out over exp::Runner, prints a
/// per-scenario pass/fail table with first-divergence detail (path,
/// expected vs got, ULP distance) and exits non-zero on any mismatch;
/// `--update` regenerates the corpus.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"

namespace mcsim::obs {
class JsonValue;
class JsonWriter;
}  // namespace mcsim::obs

namespace mcsim::exp {

struct ScenarioSpec;

/// Version of the golden JSON layout. Bump on any key rename/removal;
/// adding observation keys changes digests (regenerate with --update) but
/// needs no bump.
inline constexpr std::int64_t kGoldenSchemaVersion = 1;

/// 64-bit FNV-1a over `text` (the digest primitive; stable, dependency-free).
std::uint64_t fnv1a64(std::string_view text);

/// The first point where an observation diverges from its golden.
struct Divergence {
  /// Dotted JSON path of the leaf, e.g. "result.response.all.mean" or
  /// "points[3].utilization".
  std::string path;
  std::string expected;
  std::string got;
  /// ULP distance for finite double-vs-double mismatches; -1 when not
  /// applicable (kind mismatch, strings, non-finite values).
  std::int64_t ulp = -1;

  /// One-line human rendering: path, expected vs got, ULP when known.
  [[nodiscard]] std::string describe() const;
};

struct CompareOutcome {
  bool match = true;
  Divergence first;  ///< Valid only when !match.
};

/// Execute `spec` per its run mode and serialize the deterministic
/// observable outcome as one canonical JSON document:
///   point        -> result statistics + metrics + SWF-stream digest
///   sweep        -> per-point utilization + result statistics
///   saturation   -> maximal gross/net utilization, completions, end time
///   replications -> per-replication means, CI, busy fraction
/// Runs serially (spec.parallelism is ignored: results are
/// parallelism-invariant, and verify parallelises across scenarios).
std::string canonical_observation(const ScenarioSpec& spec);

/// Digest of an observation tree: FNV-1a over its flattened
/// `path=value` lines — formatting-independent, so a golden file survives
/// re-serialization but not a changed digit.
std::string observation_digest(const obs::JsonValue& observation);

/// The flattened `path=value\n` view observation_digest() hashes (exposed
/// for tests and for diffing two goldens by hand).
std::string flatten_observation(const obs::JsonValue& observation);

/// The deterministic sub-document of a parsed run manifest — config,
/// result and (when embedded) scenario, re-serialized canonically — i.e.
/// everything in a manifest that is a pure function of the scenario.
/// Wall-clock provenance (clocks.*, provenance.command_line, the run.*
/// metric gauges) is excluded by construction. Two runs of the same
/// scenario on the same build produce byte-identical observations, which
/// is what makes a served manifest comparable bit-exactly against an
/// offline `mcsim run` manifest (docs/SERVING.md, the serve-smoke CI job,
/// tests/serve_server_test.cpp). Throws std::invalid_argument when
/// `manifest` is not a run-manifest document.
std::string manifest_observation(const obs::JsonValue& manifest);

/// Compare two observation trees. Object members are matched by key
/// (missing and extra keys are divergences), arrays element-wise, numeric
/// leaves by their bits. Returns the first divergence in document order.
CompareOutcome compare_observations(const obs::JsonValue& expected,
                                    const obs::JsonValue& got);

/// Re-emit a parsed JSON value on an open writer, reproducing our own
/// serialization byte-for-byte (integer-formatted numbers stay integers;
/// doubles go through the idempotent json_double path). Used wherever a
/// sealed document embeds a previously-serialized observation (golden
/// files, served run manifests).
void write_parsed_json(obs::JsonWriter& json, const obs::JsonValue& value);

/// Write one complete golden document: schema header, scenario file name
/// and label, the observation digest, provenance (git describe, compiler,
/// build type — documentation, never compared), and the observation
/// itself. `observation_json` must be the canonical_observation() output.
void write_golden_file(std::ostream& out, const ScenarioSpec& spec,
                       const std::string& scenario_file,
                       const std::string& observation_json);

/// Canonical golden path for a scenario file:
/// `<golden_dir>/<scenario stem>.golden.json`.
std::string golden_path_for(const std::string& golden_dir,
                            const std::string& scenario_file);

/// Per-scenario verify outcome.
enum class VerifyStatus : std::uint8_t {
  kPass,           ///< observation matches the golden
  kFail,           ///< divergence or corrupted golden (detail says which)
  kMissingGolden,  ///< scenario has no golden — run --update and review
  kOrphanGolden,   ///< golden has no scenario file (stale corpus)
  kError,          ///< scenario failed to load or run
  kUpdated,        ///< --update rewrote this golden
};

const char* verify_status_name(VerifyStatus status);

struct ScenarioVerdict {
  std::string scenario_file;  ///< basename, e.g. "fig3_gs_limit16.json"
  std::string label;          ///< spec label (empty for orphans/load errors)
  VerifyStatus status = VerifyStatus::kPass;
  /// First-divergence description, digest, or error message.
  std::string detail;
};

struct VerifyReport {
  std::vector<ScenarioVerdict> verdicts;

  /// True when no verdict is kFail / kMissingGolden / kOrphanGolden /
  /// kError (kUpdated counts as success).
  [[nodiscard]] bool ok() const;
};

struct VerifyOptions {
  /// Worker threads for the scenario fan-out (0 = all cores, 1 = serial).
  unsigned parallelism = 0;
  /// Regenerate goldens instead of comparing.
  bool update = false;
};

/// Run every `*.json` scenario under `scenario_dir` (sorted by name) and
/// verify it against — or, with options.update, rewrite — its golden under
/// `golden_dir`. Verdicts come back in scenario order, followed by one
/// kOrphanGolden verdict per stale golden. Throws std::invalid_argument
/// when `scenario_dir` holds no scenarios.
VerifyReport verify_goldens(const std::string& scenario_dir,
                            const std::string& golden_dir,
                            const VerifyOptions& options);

}  // namespace mcsim::exp
