// make_corpus_scenarios — deterministic generator for the archive-corpus
// scenarios (data/scenarios/corpus/, docs/WORKLOADS.md).
//
// Run from the repository root. For every `*.swf` log under
// data/archive_samples/ it writes one point scenario,
// `<log stem>.json`, that replays the log under LS on a machine sized from
// the log's own header: MaxProcs (else MaxNodes) rounded up to a multiple
// of 4 clusters and split evenly. The arrival scale is the one that makes
// the log offer gross utilization 0.7 on that machine. A log that declares
// neither directive is refused: the corpus machine comes from the header
// alone.
//
// Every entry is a plain scenario file produced by the canonical
// serializer, so `mcsim run` executes it and `mcsim verify
// --scenarios=data/scenarios/corpus data/golden/corpus` seals it.
// Regenerating reproduces the checked-in files byte-for-byte (the
// exp_corpus_scenarios_regenerate_byte_for_byte test), which is what keeps
// the sealed goldens honest.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/scenario_spec.hpp"
#include "trace/swf_stream.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "workload/trace_workload.hpp"

namespace {

namespace fs = std::filesystem;
using mcsim::exp::ScenarioSpec;

constexpr const char* kLogDir = "data/archive_samples";
constexpr std::uint32_t kClusters = 4;
constexpr double kTargetUtilization = 0.7;

/// The corpus scenario for one log: LS at the default seed on the machine
/// its header declares, scaled to kTargetUtilization.
ScenarioSpec corpus_spec(const fs::path& log) {
  const mcsim::SwfScan scan = mcsim::scan_swf_file(log.string());
  const std::int64_t declared = scan.header.declared_processors();
  MCSIM_REQUIRE(declared > 0, log.string() +
                                  " declares neither MaxProcs nor MaxNodes; "
                                  "a corpus machine is sized from the header");
  const auto per_cluster =
      static_cast<std::uint32_t>((declared + kClusters - 1) / kClusters);

  ScenarioSpec spec;
  spec.name = "corpus: " + log.filename().string() +
              " under LS at gross utilization 0.7";
  spec.policy = mcsim::PolicyKind::kLS;
  spec.cluster_sizes.assign(kClusters, per_cluster);
  spec.trace_path = "../../archive_samples/" + log.filename().string();
  spec.trace_scale = mcsim::trace_scale_for_utilization(
      scan.summary, per_cluster * kClusters, kTargetUtilization);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::CliParser parser(
      "make_corpus_scenarios: regenerate the archive-corpus scenarios "
      "(docs/WORKLOADS.md)");
  parser.add_option("out", "data/scenarios/corpus",
                    "directory the scenario files are written into");
  if (!parser.parse(argc, argv)) return 0;

  try {
    std::vector<fs::path> logs;
    for (const auto& entry : fs::directory_iterator(kLogDir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".swf") {
        logs.push_back(entry.path());
      }
    }
    std::sort(logs.begin(), logs.end());
    MCSIM_REQUIRE(!logs.empty(), std::string("no .swf logs under ") + kLogDir);

    const fs::path out_dir = parser.get("out");
    fs::create_directories(out_dir);
    for (const fs::path& log : logs) {
      const ScenarioSpec spec = corpus_spec(log);
      // Fail loudly at generation time, not at verify time.
      mcsim::exp::validate(spec);
      const fs::path path = out_dir / (log.stem().string() + ".json");
      std::ofstream out(path);
      MCSIM_REQUIRE(out.good(), "cannot open " + path.string());
      mcsim::exp::write_scenario_file(out, spec);
      MCSIM_REQUIRE(out.good(), "write failed: " + path.string());
    }
    std::cout << "wrote " << logs.size() << " scenarios to " << out_dir.string()
              << '\n';
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "make_corpus_scenarios: " << error.what() << '\n';
    return 1;
  }
}
