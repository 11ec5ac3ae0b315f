/// \file
/// \brief Trace-corpus replay: drive the schedulers over a directory of
/// archive-style SWF logs, one streamed replay per log, each scaled to the
/// same target utilization — and pin every log's result statistics in a
/// sealed per-log summary golden (docs/WORKLOADS.md).
///
/// The corpus runner is the archive-scale face of trace replay. For every
/// `*.swf` under the corpus directory it
///
///   1. pre-scans the log (trace::scan_swf_file): O(1)-memory pass that
///      validates every line, reads the PWA header directives, and
///      collects the aggregate facts scale derivation needs;
///   2. sizes the machine from the log's own header — MaxProcs (or
///      MaxNodes) rounded up to a multiple of the cluster count, split
///      evenly — falling back to the widest job when the header declares
///      nothing;
///   3. derives the arrival scale that makes the log offer the target
///      gross utilization on that machine (trace_scale_for_utilization);
///   4. replays it streaming (bounded-lookahead TraceWorkload) and
///      serializes the deterministic result statistics as one canonical
///      observation.
///
/// With a golden directory the observation is compared bit-exactly against
/// — or, in update mode, written to — `<log stem>.summary.json`, the same
/// sealed-document discipline as the scenario goldens (exp/golden.hpp):
/// an `observed` subtree plus an FNV-1a digest seal over its flattened
/// `path=value` view, verified on both CI compilers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/golden.hpp"

namespace mcsim::exp {

struct ScenarioSpec;

/// Version of the corpus-summary JSON layout. Bump on any key
/// rename/removal; adding observation keys changes digests (regenerate
/// with --update-goldens) but needs no bump.
inline constexpr std::int64_t kCorpusSummarySchemaVersion = 1;

/// How the corpus runner treats the summary-golden directory.
enum class CorpusGoldenMode : std::uint8_t {
  kNone,    ///< replay and report only; no goldens touched
  kCheck,   ///< compare each log's observation against its sealed summary
  kUpdate,  ///< (re)write each log's sealed summary
};

struct CorpusOptions {
  /// Per-log target gross utilization the arrival scale is derived for.
  double utilization = 0.7;
  /// Streaming lookahead override (0 = TraceWorkloadConfig default).
  std::uint32_t lookahead = 0;
  CorpusGoldenMode golden_mode = CorpusGoldenMode::kNone;
  /// Directory of `<log stem>.summary.json` sealed summaries (check /
  /// update modes).
  std::string golden_dir;
};

/// One corpus log's outcome: replay facts for the report table plus the
/// golden verdict (kPass when golden_mode is kNone and the replay ran).
struct CorpusLogVerdict {
  std::string log_file;  ///< basename, e.g. "sdsc_sp2_style.swf"
  VerifyStatus status = VerifyStatus::kPass;
  /// Digest, first divergence, or error message.
  std::string detail;
  std::uint64_t total_records = 0;
  std::uint64_t usable_records = 0;
  /// Processors the header declares (MaxProcs, else MaxNodes); 0 when the
  /// log declares neither and the machine was sized from the widest job.
  std::uint64_t header_processors = 0;
  /// The machine the log replayed on (header width rounded up to a
  /// cluster-count multiple).
  std::uint32_t machine_processors = 0;
  double arrival_scale = 0.0;
};

struct CorpusReport {
  std::vector<CorpusLogVerdict> verdicts;

  /// True when no verdict is kFail / kMissingGolden / kOrphanGolden /
  /// kError (kUpdated counts as success).
  [[nodiscard]] bool ok() const;
};

/// Canonical summary-golden path for a log file:
/// `<golden_dir>/<log stem>.summary.json`.
std::string corpus_summary_path_for(const std::string& golden_dir,
                                    const std::string& log_file);

/// Replay one log per the corpus policy above and return its canonical
/// observation as JSON text (the `observed` subtree of the sealed
/// summary). `base` supplies everything but the machine and the trace
/// fields: policy stack, splitting parameters, seed, run mode is forced
/// to point. Exposed for tests; run_corpus() is the driver.
std::string corpus_log_observation(const ScenarioSpec& base,
                                   const std::string& log_path,
                                   const CorpusOptions& options,
                                   CorpusLogVerdict* facts = nullptr);

/// Replay every `*.swf` under `corpus_dir` (sorted by name). Verdicts come
/// back in log order; check/update modes append one kOrphanGolden verdict
/// per stale summary. Throws std::invalid_argument when `corpus_dir` holds
/// no logs or a golden mode is requested without a golden_dir.
CorpusReport run_corpus(const ScenarioSpec& base, const std::string& corpus_dir,
                        const CorpusOptions& options);

}  // namespace mcsim::exp
