#include "trace/swf.hpp"

#include <fstream>

#include "trace/swf_stream.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

// read_swf, which reads a whole log into memory, is a convenience wrapper
// over the incremental SwfStreamReader (trace/swf_stream.hpp); all parsing,
// hardening and header-directive validation lives there so the streaming
// replay path and this one cannot drift apart.
SwfTrace read_swf(std::istream& in, const std::string& source) {
  SwfStreamReader reader(in, source);
  SwfTrace trace;
  TraceRecord record;
  while (reader.next(record)) trace.records.push_back(record);
  trace.header_comments = reader.header().comments;
  return trace;
}

SwfTrace read_swf_file(const std::string& path) {
  std::ifstream in(path);
  MCSIM_REQUIRE(in.good(), "cannot open trace file: " + path);
  return read_swf(in, path);
}

void write_swf(std::ostream& out, const SwfTrace& trace) {
  for (const auto& comment : trace.header_comments) out << "; " << comment << '\n';
  for (const auto& rec : trace.records) {
    // 18 SWF fields; unmodelled ones are -1. Times are printed with
    // round-trip precision: wait and run are stored fields of TraceRecord,
    // so write -> read reproduces them bit-exactly.
    out << rec.job_id << ' '                                  // 1 job id
        << format_double_roundtrip(rec.submit_time) << ' '    // 2 submit
        << format_double_roundtrip(rec.wait_time) << ' '      // 3 wait
        << format_double_roundtrip(rec.run_time) << ' '       // 4 run time
        << rec.processors << ' '                     // 5 allocated procs
        << -1 << ' '                                 // 6 avg cpu time
        << -1 << ' '                                 // 7 used memory
        << rec.processors << ' '                     // 8 requested procs
        << -1 << ' '                                 // 9 requested time
        << -1 << ' '                                 // 10 requested memory
        << (rec.killed_by_limit ? 5 : 1) << ' '      // 11 status
        << rec.user_id << ' '                        // 12 user id
        << -1 << ' ' << -1 << ' ' << -1 << ' '       // 13 group, 14 app, 15 queue
        << -1 << ' ' << -1 << ' ' << -1 << '\n';     // 16 partition, 17 prev job, 18 think time
  }
}

void write_swf_file(const std::string& path, const SwfTrace& trace) {
  std::ofstream out(path);
  MCSIM_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  write_swf(out, trace);
}

}  // namespace mcsim
