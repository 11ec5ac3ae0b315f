// make_bench_trace — deterministic workload generator for the replay
// throughput benchmark (bench/replay_throughput.cpp, docs/PERFORMANCE.md).
//
// Wraps the synthetic DAS1 log generator with bench-pinned defaults: a
// fixed seed and a 120k-job log (4x the paper's three-month trace, spread
// over a proportionally longer span so the arrival intensity stays DAS-
// like). The benchmark itself synthesises the same log in memory via the
// same library call; this tool exists so the trace can be materialised,
// inspected with `mcsim trace-stats`, and replayed with `mcsim run
// --trace-in` outside the benchmark harness.
//
// The printed FNV-1a digest covers every replay-relevant field, so two
// invocations (or two machines) can assert they benchmark the same input.
#include <cstdint>
#include <iostream>

#include "trace/swf.hpp"
#include "trace/synthetic_log.hpp"
#include "util/cli.hpp"

namespace {

// FNV-1a over the replay-relevant record fields (submit, run, processors,
// user), mirroring the spirit of the golden gate's stream digest.
std::uint64_t trace_digest(const mcsim::SwfTrace& trace) {
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = kOffset;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffU;
      hash *= kPrime;
    }
  };
  const auto mix_double = [&mix](double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  for (const auto& record : trace.records) {
    mix(static_cast<std::uint64_t>(record.job_id));
    mix_double(record.submit_time);
    mix_double(record.run_time);
    mix(static_cast<std::uint64_t>(record.processors));
    mix(static_cast<std::uint64_t>(record.user_id));
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::CliParser parser(
      "make_bench_trace: deterministic >=100k-job synthetic SWF for the "
      "replay throughput benchmark");
  parser.add_option("sim-jobs", "120000", "jobs in the log (bench floor: 100000)");
  parser.add_option("days", "360", "log span in days");
  parser.add_option("seed", "20031128", "random seed (pinned for the benchmark)");
  parser.add_option("out", "bench_trace.swf", "output SWF path");
  try {
    if (!parser.parse(argc, argv)) return 0;

    mcsim::SyntheticLogConfig config;
    config.num_jobs = parser.get_uint("sim-jobs");
    config.duration_seconds = parser.get_double("days") * 86400.0;
    config.seed = parser.get_uint("seed");
    const mcsim::SwfTrace trace = mcsim::generate_synthetic_das1_log(config);
    mcsim::write_swf_file(parser.get("out"), trace);
    std::cout << "wrote " << trace.records.size() << " jobs to " << parser.get("out")
              << "\ndigest 0x" << std::hex << trace_digest(trace) << std::dec << '\n';
  } catch (const std::exception& error) {
    std::cerr << "make_bench_trace: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
