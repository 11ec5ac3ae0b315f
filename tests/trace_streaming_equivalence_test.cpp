// Streaming-equivalence gate: every checked-in SWF log, replayed through
// the bounded lookahead window straight from the file, must produce the
// bit-identical result of the same replay fed the full sort
// (usable_trace_records over the whole file read into memory). The
// reference goes through the same construction path as `mcsim run`, with
// only the trace resolver swapped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json.hpp"
#include "trace/swf.hpp"
#include "trace/swf_stream.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_workload.hpp"

#ifndef MCSIM_DATA_DIR
#define MCSIM_DATA_DIR "data"
#endif

namespace mcsim::exp {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kClusters = 4;
constexpr double kUtilization = 0.7;

/// Every SWF log the repo checks in: the DAS1 synthetic sample plus the
/// archive-style corpus.
std::vector<std::string> checked_in_logs() {
  std::vector<std::string> logs = {
      std::string(MCSIM_DATA_DIR) + "/das1_synthetic_sample.swf"};
  const std::string corpus = std::string(MCSIM_DATA_DIR) + "/archive_samples";
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.is_regular_file() && entry.path().extension() == ".swf") {
      logs.push_back(entry.path().string());
    }
  }
  std::sort(logs.begin(), logs.end());
  return logs;
}

/// A GS point replay of `log` on four clusters wide enough for its widest
/// job, scaled to kUtilization.
ScenarioSpec replay_spec(const std::string& log, std::uint32_t lookahead) {
  const SwfScan scan = scan_swf_file(log);
  const std::int64_t declared = scan.header.declared_processors();
  const auto width = declared > 0 ? static_cast<std::uint32_t>(declared)
                                  : scan.summary.max_processors;
  const std::uint32_t per_cluster = (width + kClusters - 1) / kClusters;
  ScenarioSpec spec;
  spec.trace_path = log;
  spec.trace_lookahead = lookahead;
  spec.cluster_sizes.assign(kClusters, per_cluster);
  spec.trace_scale =
      trace_scale_for_utilization(scan.summary, kClusters * per_cluster, kUtilization);
  return spec;
}

/// The reference resolver: the whole log read into memory and fully sorted.
ResolvedTrace resolve_full_sort(const std::string& path) {
  ResolvedTrace resolved;
  resolved.scan = scan_swf_file(path);
  auto records = std::make_shared<const std::vector<TraceRecord>>(
      usable_trace_records(read_swf_file(path).records));
  resolved.open_source = [records] { return std::make_unique<VectorRecordSource>(records); };
  return resolved;
}

std::string result_text(const SimulationConfig& config) {
  std::ostringstream text;
  obs::JsonWriter json(text);
  write_result_json(json, run_simulation(config));
  return text.str();
}

/// The result JSON of `spec` streamed from its file, and of the same spec
/// fed the full sort.
std::pair<std::string, std::string> streamed_and_sorted(const ScenarioSpec& spec) {
  return {result_text(to_simulation_config(spec, spec.utilization)),
          result_text(to_simulation_config(spec, spec.utilization, resolve_full_sort))};
}

TEST(StreamingEquivalence, EveryCheckedInLogMatchesWholeFileBitExactly) {
  const std::vector<std::string> logs = checked_in_logs();
  ASSERT_GE(logs.size(), 5u) << "corpus went missing under " << MCSIM_DATA_DIR;

  for (const std::string& log : logs) {
    const auto [streamed, sorted] = streamed_and_sorted(replay_spec(log, 0));
    // String equality of the result JSON = bit-identical statistics, job
    // for job (doubles print at round-trip precision).
    EXPECT_EQ(streamed, sorted) << "streaming replay of " << log
                                << " diverges from the full sort";
  }
}

TEST(StreamingEquivalence, TinyLookaheadWindowStillMatchesWhenLogIsSorted) {
  // The DAS1 sample is submit-sorted, so even a 2-record window must
  // reproduce the full sort.
  const auto [streamed, sorted] = streamed_and_sorted(
      replay_spec(std::string(MCSIM_DATA_DIR) + "/das1_synthetic_sample.swf", 2));
  EXPECT_EQ(streamed, sorted);
}

TEST(StreamingEquivalence, ArchiveSampleNeedsTheLookaheadWindow) {
  // The archive samples are deliberately scrambled (bounded disorder), so
  // a 1-record window must trip the out-of-order guard — proving the
  // equivalence above exercises the re-sort, not already-sorted input.
  const std::string log =
      std::string(MCSIM_DATA_DIR) + "/archive_samples/sdsc_sp2_style.swf";
  EXPECT_THROW(run_simulation(to_simulation_config(replay_spec(log, 1))),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::exp
