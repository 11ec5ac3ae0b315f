// Pull-based record source: the seam between the trace-replay workload and
// whatever produces TraceRecords. TraceWorkload receives every record
// through one of these, so a multi-year archive log is parsed a record at a
// time and peak memory stays O(lookahead window) instead of O(log length)
// (docs/WORKLOADS.md, "The streaming memory model").
//
// The interface lives here (not in src/trace) because of the layering:
// mcsim_trace links *against* mcsim_workload, so the file-backed
// implementation (SwfFileStream, trace/swf_stream.hpp) can satisfy an
// interface the workload layer defines, while the workload layer itself
// never touches file I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "trace/record.hpp"

namespace mcsim {

class TraceRecordSource {
 public:
  TraceRecordSource() = default;
  TraceRecordSource(const TraceRecordSource&) = delete;
  TraceRecordSource& operator=(const TraceRecordSource&) = delete;
  virtual ~TraceRecordSource() = default;

  /// Fill `out` with the next record in source order (for a file: file
  /// order, which real archive logs keep only approximately sorted by
  /// submit time). Returns false when the source is exhausted; `out` is
  /// untouched in that case. Implementations throw on malformed input.
  virtual bool next(TraceRecord& out) = 0;
};

/// A source over records already in memory, delivered in vector order —
/// the daemon's warm cache, the replay benchmark, tests. Records held in
/// memory still pass through TraceWorkload's lookahead window like a
/// file's. Shares ownership of the vector, so it stays valid after every
/// other owner lets go (a cache eviction mid-run).
class VectorRecordSource final : public TraceRecordSource {
 public:
  explicit VectorRecordSource(std::shared_ptr<const std::vector<TraceRecord>> records)
      : records_(std::move(records)) {}

  bool next(TraceRecord& out) override;

 private:
  std::shared_ptr<const std::vector<TraceRecord>> records_;
  std::size_t next_ = 0;
};

/// Factory for fresh sources over the same underlying log. A
/// TraceWorkloadConfig is shared immutably across sweep points and runner
/// threads, but an open stream cannot be: every engine instance calls the
/// factory once and owns the stream it gets back.
using TraceSourceFactory = std::function<std::unique_ptr<TraceRecordSource>()>;

/// The replayable-record filter shared by every path (the replay pull
/// loop, the pre-scan, and the usable_trace_records reference sort):
/// cancelled-before-start jobs (run 0), interactive stubs (0 procs) and
/// records with unknown submit times offer no work to schedule.
[[nodiscard]] bool trace_record_usable(const TraceRecord& record);

/// One streaming pass worth of aggregate facts about a log — everything
/// scale derivation and validation need, at O(1) memory. Sums run in
/// source order (the canonical order for these statistics; see
/// trace_offered_gross_utilization overloads in trace_workload.hpp).
struct TraceStreamSummary {
  std::uint64_t total_records = 0;   ///< records seen, usable or not
  std::uint64_t usable_records = 0;  ///< records passing trace_record_usable
  double first_submit = 0.0;         ///< over usable records
  double last_submit = 0.0;
  /// Sum over usable records of processors * run_time, in source order.
  double gross_work = 0.0;
  std::uint32_t max_processors = 0;  ///< over usable records

  /// Fold the next record, in source order, into the summary: the one
  /// fold behind the pre-scan and the daemon's cache load.
  void add(const TraceRecord& record);
};

}  // namespace mcsim
