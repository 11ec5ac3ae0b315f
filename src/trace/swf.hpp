// Reader/writer for a Standard-Workload-Format-style (SWF) trace file.
//
// We use the community SWF column layout (Feitelson's Parallel Workloads
// Archive): 18 whitespace-separated fields per job line, ';' comments in a
// header. Only the fields the model needs are populated; the others are -1
// as SWF prescribes. This makes our synthetic DAS1 log loadable by standard
// tooling and lets users feed real SWF traces into the simulator.
//
// Field map used (1-based SWF numbering):
//   1 job id | 2 submit | 3 wait | 4 run time | 5 allocated procs
//   8 requested procs | 12 user id | 11 status (1 completed, 5 killed)
// TraceRecord stores exactly the quantities SWF carries (submit, wait,
// run), and times are written with round-trip precision (%.17g), so a
// write -> read cycle reproduces every record bit-exactly — the property
// the observability layer's export pipeline relies on (docs/TRACING.md).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace mcsim {

struct SwfTrace {
  std::vector<std::string> header_comments;  // without the leading ';'
  std::vector<TraceRecord> records;
};

/// Parse a whole SWF stream into memory. Tolerant of what real
/// Parallel Workloads Archive logs contain: CRLF line endings, blank
/// lines, ';' comments anywhere, and truncated lines (absent trailing
/// fields read as -1, SWF's "unknown"). Throws std::invalid_argument on
/// anything else — non-numeric fields, more than 18 columns, a record with
/// no processor count, a malformed header directive, or a record wider
/// than the header's declared machine — with a `source:line:` prefix
/// locating the offending line. Implemented over the incremental
/// SwfStreamReader (trace/swf_stream.hpp), which is what archive-scale
/// replay uses directly to keep memory O(1) in the log length.
SwfTrace read_swf(std::istream& in, const std::string& source = "<swf>");

/// Load from a file path.
SwfTrace read_swf_file(const std::string& path);

/// Write records in SWF format with the given header comments.
void write_swf(std::ostream& out, const SwfTrace& trace);

void write_swf_file(const std::string& path, const SwfTrace& trace);

}  // namespace mcsim
