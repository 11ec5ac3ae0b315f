// make_archive_sample — deterministic builder for the checked-in trace
// corpus (data/archive_samples/, docs/WORKLOADS.md).
//
// Two modes:
//
//   --from=<log.swf>    down-sample a real (possibly multi-million-line)
//                       archive log: two streaming passes — a scan to count
//                       records, then a stride-keep pass — so arbitrarily
//                       large inputs process at O(1) memory. Every k-th
//                       record is kept, submit times are rebased to the
//                       first kept record, ids are renumbered, and the
//                       source's declared machine (MaxProcs/MaxNodes)
//                       carries over.
//
//   --style=<name>      synthesise a medium sample in the dialect of a
//                       well-known Parallel Workloads Archive log
//                       (sdsc_sp2, ctc, kth, das2). The job stream comes
//                       from the synthetic DAS1 generator re-targeted at
//                       the style's machine; the dialect quirks the
//                       streaming reader must absorb are layered on top
//                       deterministically:
//                         * a PWA-style header (MaxNodes and/or MaxProcs,
//                           MaxJobs, UnixStartTime, free-text notes);
//                         * bounded out-of-order submit lines (records
//                           displaced well inside the default 4096-record
//                           lookahead window);
//                         * ~2% cancelled records (run time 0 — counted,
//                           then skipped by the usable filter);
//                         * truncated lines that drop the unused trailing
//                           "-1" columns, as archive logs do.
//
// Everything derives from --seed, so regenerating a sample reproduces it
// byte-for-byte — which is what lets the corpus scenarios written from
// the samples (tools/make_corpus_scenarios) keep their goldens sealed.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "trace/swf.hpp"
#include "trace/swf_stream.hpp"
#include "trace/synthetic_log.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using mcsim::SwfFileStream;
using mcsim::TraceRecord;

/// Minimal deterministic generator for the quirk decisions (which lines to
/// displace, cancel, truncate). SplitMix64: tiny, seedable, and not shared
/// with the engine's RNG, so sample synthesis can never perturb it.
class QuirkRng {
 public:
  explicit QuirkRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

struct Style {
  const char* name;
  const char* computer;
  /// Machine declaration: procs > 0 emits MaxProcs, nodes > 0 MaxNodes.
  std::int64_t max_nodes;
  std::int64_t max_procs;
};

// The declared machines match the archive originals these styles imitate;
// das2 declares both (two processors per node), exercising the reader's
// MaxProcs-over-MaxNodes preference.
constexpr Style kStyles[] = {
    {"sdsc_sp2", "IBM SP2", 128, -1},
    {"ctc", "IBM SP2", -1, 430},
    {"kth", "IBM SP2", 100, -1},
    {"das2", "DAS-2 fs0", 72, 144},
};

const Style* find_style(const std::string& name) {
  for (const Style& style : kStyles) {
    if (name == style.name) return &style;
  }
  return nullptr;
}

/// One job record in the style dialect. `truncated` drops the unused
/// trailing -1 columns (archive logs do this; absent fields read as -1).
void write_record_line(std::ostream& out, const TraceRecord& rec, int status,
                       bool truncated) {
  out << rec.job_id << ' '                                // 1 job id
      << mcsim::format_double_roundtrip(rec.submit_time)  // 2 submit
      << ' ' << mcsim::format_double_roundtrip(rec.wait_time)  // 3 wait
      << ' ' << mcsim::format_double_roundtrip(rec.run_time)   // 4 run
      << ' ' << rec.processors                            // 5 allocated
      << " -1 -1 " << rec.processors                      // 6,7; 8 requested
      << " -1 -1 "                                        // 9,10
      << status << ' ' << rec.user_id;                    // 11 status, 12 user
  if (!truncated) out << " -1 -1 -1 -1 -1 -1";            // 13..18
  out << '\n';
}

int synthesize(const Style& style, std::uint64_t jobs, std::uint64_t seed,
               const std::string& out_path) {
  // Job stream: the synthetic DAS1 model re-targeted at the style's
  // machine, spread over a span proportional to the job count.
  mcsim::SyntheticLogConfig config;
  config.num_jobs = jobs;
  const std::int64_t width =
      style.max_procs > 0 ? style.max_procs : style.max_nodes;
  // The DAS-s-128 size distribution draws up to 128 processors, so the
  // generator needs at least that much machine; narrower styles (kth's
  // 100 nodes) clamp the drawn widths down to their declared machine
  // below, which is exactly the saturating behaviour the archive logs
  // show at full-machine jobs.
  config.cluster_size =
      static_cast<std::uint32_t>(std::max<std::int64_t>(width, 128));
  config.duration_seconds =
      90.0 * 24 * 3600 * (static_cast<double>(jobs) / 30000.0);
  config.seed = seed;
  mcsim::SwfTrace trace = mcsim::generate_synthetic_das1_log(config);
  for (TraceRecord& rec : trace.records) {
    rec.processors = std::min(rec.processors, static_cast<std::uint32_t>(width));
  }

  QuirkRng rng(seed * 0x51ed2701u + 17);

  // Bounded disorder: rotate scattered short runs, displacing each member
  // at most kWindow-1 positions — far inside the streaming reader's
  // default 4096-record lookahead, so replay still reproduces the full
  // sort bit-exactly.
  constexpr std::size_t kWindow = 8;
  std::vector<TraceRecord>& records = trace.records;
  for (std::size_t i = 0; i + kWindow < records.size(); i += kWindow) {
    if (rng.below(100) < 25) {
      std::rotate(records.begin() + static_cast<std::ptrdiff_t>(i),
                  records.begin() + static_cast<std::ptrdiff_t>(i + 1),
                  records.begin() + static_cast<std::ptrdiff_t>(i + kWindow));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "make_archive_sample: cannot open " << out_path << '\n';
    return 1;
  }
  out << "; SWF format, version 2\n";
  out << "; Computer: " << style.computer << '\n';
  out << "; Note: synthetic sample in the style of the " << style.name
      << " archive log\n";
  out << "; Note: generated by make_archive_sample --style=" << style.name
      << " --jobs=" << jobs << " --seed=" << seed << '\n';
  out << "; MaxJobs: " << records.size() << '\n';
  out << "; MaxRecords: " << records.size() << '\n';
  if (style.max_nodes > 0) out << "; MaxNodes: " << style.max_nodes << '\n';
  if (style.max_procs > 0) out << "; MaxProcs: " << style.max_procs << '\n';
  out << "; UnixStartTime: 0\n";

  std::uint64_t cancelled = 0;
  std::uint64_t truncated = 0;
  std::uint64_t id = 1;
  for (TraceRecord rec : records) {
    rec.job_id = id++;
    int status = rec.killed_by_limit ? 5 : 1;
    if (rng.below(100) < 2) {
      // Cancelled before starting: zero run time, status 0. Counted by the
      // scan, skipped by the usable filter.
      rec.run_time = 0.0;
      rec.wait_time = 0.0;
      status = 0;
      ++cancelled;
    }
    const bool drop_tail = rng.below(100) < 10;
    if (drop_tail) ++truncated;
    write_record_line(out, rec, status, drop_tail);
  }

  std::cout << "wrote " << records.size() << " records (" << cancelled
            << " cancelled, " << truncated << " truncated lines) to "
            << out_path << '\n';
  return 0;
}

int downsample(const std::string& from, std::uint64_t jobs,
               const std::string& out_path) {
  // Pass 1: O(1)-memory scan for the record count and the declared machine.
  const mcsim::SwfScan scan = mcsim::scan_swf_file(from);
  if (scan.summary.total_records == 0) {
    std::cerr << "make_archive_sample: " << from << " has no job records\n";
    return 1;
  }
  const std::uint64_t stride =
      jobs == 0 ? 1 : std::max<std::uint64_t>(1, scan.summary.total_records / jobs);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "make_archive_sample: cannot open " << out_path << '\n';
    return 1;
  }
  out << "; Derived by make_archive_sample --from=" << from
      << " (every " << stride << "th of " << scan.summary.total_records
      << " records, submit times rebased)\n";
  if (scan.header.max_nodes >= 0) out << "; MaxNodes: " << scan.header.max_nodes << '\n';
  if (scan.header.max_procs >= 0) out << "; MaxProcs: " << scan.header.max_procs << '\n';
  out << "; UnixStartTime: 0\n";

  // Pass 2: stride-keep, still one record at a time.
  SwfFileStream stream(from);
  TraceRecord rec;
  std::uint64_t index = 0;
  std::uint64_t kept = 0;
  double base_submit = 0.0;
  while (stream.next(rec)) {
    if (index++ % stride != 0) continue;
    if (kept == 0) base_submit = rec.submit_time;
    rec.submit_time -= base_submit;
    rec.job_id = ++kept;
    write_record_line(out, rec, rec.killed_by_limit ? 5 : 1, false);
  }
  std::cout << "kept " << kept << " of " << scan.summary.total_records
            << " records (stride " << stride << ") -> " << out_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::CliParser parser(
      "make_archive_sample: deterministic archive-style SWF samples "
      "(down-sample a real log, or synthesise a dialect sample)");
  parser.add_option("from", "", "down-sample this SWF log (streaming, O(1) memory)");
  parser.add_option("style", "",
                    "synthesise in this archive dialect: sdsc_sp2, ctc, kth, das2");
  parser.add_option("jobs", "2500", "records to keep / generate (0 = all, --from only)");
  parser.add_option("seed", "20031128", "quirk + generator seed (--style only)");
  parser.add_option("out", "sample.swf", "output SWF path");
  try {
    if (!parser.parse(argc, argv)) return 0;
    const std::string from = parser.get("from");
    const std::string style_name = parser.get("style");
    if (from.empty() == style_name.empty()) {
      std::cerr << "make_archive_sample: pass exactly one of --from / --style\n";
      return 1;
    }
    if (!from.empty()) {
      return downsample(from, parser.get_uint("jobs"), parser.get("out"));
    }
    const Style* style = find_style(style_name);
    if (style == nullptr) {
      std::cerr << "make_archive_sample: unknown style '" << style_name
                << "' (sdsc_sp2, ctc, kth, das2)\n";
      return 1;
    }
    return synthesize(*style, parser.get_uint("jobs"), parser.get_uint("seed"),
                      parser.get("out"));
  } catch (const std::exception& error) {
    std::cerr << "make_archive_sample: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
