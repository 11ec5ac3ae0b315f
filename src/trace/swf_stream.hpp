// Incremental SWF reader: the streaming core behind read_swf and the
// archive-scale replay path (docs/WORKLOADS.md).
//
// SwfStreamReader hands out one record per next() call, so a caller can
// walk a multi-million-job Parallel Workloads Archive log at O(1) memory.
// It reads ahead in 64 KiB blocks (grown only for a line longer than a
// block), splits lines and fields in place, and parses numbers without a
// heap allocation; a reader therefore owns the rest of the istream it is
// handed, and nothing else may read from that stream afterwards. It
// carries all of read_swf's hardening (CRLF, blank lines, ';' comments
// anywhere, truncated trailing fields read as -1, full-token number
// parsing bit-identical to std::strtod, integer fields range-checked,
// `file:line:` diagnostics) and adds the archive header dialect:
//
//   * `; Key: value` directive lines (MaxJobs, MaxRecords, MaxNodes,
//     MaxProcs, MaxRuntime, MaxQueues, MaxPartitions, UnixStartTime) are
//     parsed into SwfHeaderInfo. A known directive with a non-numeric
//     value is a `file:line:` error; unknown keys stay plain comments.
//   * When the header declares MaxProcs (or, failing that, MaxNodes), a
//     record requesting more processors than the machine the log says it
//     came from is rejected with a `file:line:` error — the log is
//     internally inconsistent and silently replaying it would misreport
//     utilization.
//
// read_swf (trace/swf.hpp) is a thin whole-file wrapper over this class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"
#include "workload/trace_source.hpp"

namespace mcsim {

/// The numeric header directives the Parallel Workloads Archive defines
/// (all -1 = not declared), plus every header/mid-file comment line
/// verbatim (trimmed, without the leading ';') in file order.
struct SwfHeaderInfo {
  std::int64_t max_jobs = -1;
  std::int64_t max_records = -1;
  std::int64_t max_nodes = -1;
  std::int64_t max_procs = -1;
  std::int64_t max_runtime = -1;
  std::int64_t max_queues = -1;
  std::int64_t max_partitions = -1;
  std::int64_t unix_start_time = -1;
  std::vector<std::string> comments;

  /// The machine size the header declares: MaxProcs when given, else
  /// MaxNodes (single-processor-node systems often declare only nodes),
  /// else -1.
  [[nodiscard]] std::int64_t declared_processors() const {
    return max_procs >= 0 ? max_procs : max_nodes;
  }
};

class SwfStreamReader {
 public:
  /// Parse from a caller-owned stream. The reader reads ahead of the
  /// records it has returned, so it owns the rest of `in`. `source` names
  /// the input in diagnostics (a path, or "<swf>" style placeholder).
  SwfStreamReader(std::istream& in, std::string source);

  /// Advance to the next job record, skipping blanks and comment lines
  /// (directives are folded into header() as they are passed). Returns
  /// false at end of input. Throws std::invalid_argument with a
  /// `source:line:` prefix on malformed input.
  bool next(TraceRecord& out);

  /// Bytes read from the stream per refill. One block holds ~800 records
  /// of a typical archive log, so refills (and the copy of the partial
  /// line they keep) are rare.
  static constexpr std::size_t kBlockBytes = std::size_t{64} * 1024;

  /// Directives and comments seen so far. SWF puts the header before the
  /// first record, so after the first next() this is complete for
  /// well-formed logs.
  [[nodiscard]] const SwfHeaderInfo& header() const { return header_; }

  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }
  /// Lines consumed so far (1-based number of the last line read).
  [[nodiscard]] std::uint64_t line_number() const { return line_no_; }
  [[nodiscard]] const std::string& source() const { return source_; }

 private:
  /// The next line without its '\n' (a view into block_, valid until the
  /// next call); false at end of input.
  bool next_line(std::string_view& line);
  /// Keep the unread tail of block_ and append the next block from in_.
  void refill();

  std::istream& in_;
  std::string source_;
  SwfHeaderInfo header_;
  std::vector<char> block_;
  std::size_t begin_ = 0;  ///< first unread byte of block_
  std::size_t end_ = 0;    ///< one past the last byte read into block_
  bool exhausted_ = false;  ///< in_ has no more bytes to give
  std::uint64_t line_no_ = 0;
  std::uint64_t records_read_ = 0;
};

/// File-backed TraceRecordSource: owns the ifstream and a SwfStreamReader
/// over it. This is what TraceWorkload pulls from in streaming mode — one
/// instance per engine, created through TraceWorkloadConfig::open_source.
class SwfFileStream final : public TraceRecordSource {
 public:
  explicit SwfFileStream(const std::string& path);

  bool next(TraceRecord& out) override;

  [[nodiscard]] const SwfHeaderInfo& header() const { return reader_.header(); }
  [[nodiscard]] const SwfStreamReader& reader() const { return reader_; }

 private:
  std::ifstream file_;
  SwfStreamReader reader_;
};

/// Everything one O(1)-memory pass over a log yields: the header
/// directives and the stream summary. This is the pre-scan the scenario
/// loader runs before replay — it derives total_jobs, the
/// utilization-target arrival scale and the per-log machine size without
/// ever materialising the records.
struct SwfScan {
  SwfHeaderInfo header;
  TraceStreamSummary summary;
};

[[nodiscard]] SwfScan scan_swf_file(const std::string& path);

}  // namespace mcsim
