// Trace-driven arrival source: replays the jobs of a recorded workload log
// (SWF records) through the engine instead of drawing them from the
// synthetic DAS distributions.
//
// The mapping from an SWF record to a JobSpec mirrors, in reverse, what
// obs::SwfTraceBuilder writes on export (docs/TRACING.md):
//
//   submit time (f2)  -> arrival_time, multiplied by `arrival_scale`
//   run time (f4)     -> gross service time, verbatim
//   processors (f5)   -> total_size, split into components by the same
//                        job_splitter the synthetic workload uses
//   user id (f12)     -> origin_queue (user mod num_clusters)
//
// Wait time (f3) is deliberately ignored on input: it is an *output* of
// the original system, and the whole point of replay is to let our
// schedulers produce their own waits from the same offered stream. The
// closed round-trip property (tests/trace_replay_roundtrip_test.cpp)
// checks the special case where the log being replayed was produced by
// this simulator under the same policy: the waits then come back
// bit-identically.
//
// `arrival_scale` compresses (< 1) or stretches (> 1) the submit axis so a
// single trace can sweep a utilization range, the paper's Fig. 3
// methodology applied to a recorded log: service demand is untouched, so
// scaling submit times by s divides the offered load by s.
//
// Records reach the workload one way (docs/WORKLOADS.md, "The streaming
// memory model"): pulled on demand from the TraceRecordSource that
// `open_source` opens — a file stream, or a VectorRecordSource over
// records already in memory — and re-ordered through a bounded lookahead
// window of `lookahead_window` records, so peak memory is O(window)
// regardless of log length. Real archive logs are only approximately
// sorted by submit time; as long as no record is displaced by more than
// the window from its sorted position, the emission order — and therefore
// every downstream statistic — is bit-identical to the full sort
// (usable_trace_records; tests/trace_streaming_equivalence_test.cpp pins
// this on every checked-in log). Records with equal (submit, job id) keep
// their file order, as the stable full sort does. A displacement beyond
// the window is detected and reported, never silently misordered.
//
// The window is a FIFO ring of the records that arrived in order (at or
// after the ring's back) plus a min-heap of the "stragglers" that arrived
// before it: an in-order record costs O(1), a straggler O(log k) for k
// stragglers in the window.
//
// Depends only on header-only trace headers — file I/O (SwfFileStream)
// stays in mcsim_trace, which links *against* this library, so opening a
// log happens one layer up (exp) through the open_source factory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "workload/job_source.hpp"
#include "workload/trace_source.hpp"
#include "workload/workload.hpp"

namespace mcsim {

/// Everything needed to replay a trace: where its records come from plus
/// the splitting parameters the synthetic workload would have used. Shared
/// immutably so a SimulationConfig stays cheap to copy across sweep points
/// and runner threads; each engine calls `open_source` once and owns its
/// stream.
struct TraceWorkloadConfig {
  /// Factory for a fresh record stream per engine.
  TraceSourceFactory open_source;
  /// Usable records the stream will deliver, from the pre-scan (drives
  /// total_jobs validation; scan_swf_file computes it).
  std::uint64_t usable_records = 0;
  /// Size of the bounded re-sort window. Replay order is identical to the
  /// full sort as long as no record is further than this many usable
  /// records from its sorted position. Storage grows on demand, so a huge
  /// window costs only what the log fills of it.
  std::uint32_t lookahead_window = kDefaultLookaheadWindow;
  /// Multiplies every submit time; < 1 compresses the trace (raises load).
  double arrival_scale = 1.0;
  /// Component-size limit handed to split_job (as WorkloadConfig).
  std::uint32_t component_limit = 16;
  std::uint32_t num_clusters = 4;
  /// Wide-area service extension applied to multi-component jobs. The
  /// trace's run time is taken as the *gross* (already-extended) time, so
  /// this only affects the derived net service_time.
  double extension_factor = 1.25;
  /// false = total requests (single-cluster SC runs): one component of the
  /// full size, never extended.
  bool split_jobs = true;
  /// Provenance only (error messages, manifests); may be empty.
  std::string source_path;
  /// How many raw records the usable filter dropped (provenance).
  std::uint64_t skipped_records = 0;

  static constexpr std::uint32_t kDefaultLookaheadWindow = 4096;
};

/// Filter a raw trace down to replayable records (trace_record_usable) and
/// stable-sort them by (submit_time, job_id), so equal keys keep their file
/// order: the full sort the lookahead window reproduces. Replay never calls
/// it; it is the reference the equivalence tests compare against, and it
/// pre-sorts the replay benchmark's trace.
[[nodiscard]] std::vector<TraceRecord> usable_trace_records(
    const std::vector<TraceRecord>& raw);

/// Offered gross utilization inherent in a trace on `total_processors`
/// CPUs: sum(processors * run) / (total_processors * submit span), from
/// one streaming pass (sums in source order, O(1) memory). Returns 0 when
/// the submit span is empty (single arrival instant).
[[nodiscard]] double trace_offered_gross_utilization(
    const TraceStreamSummary& summary, std::uint32_t total_processors);

/// Arrival scale that makes the trace offer gross utilization `target` on
/// `total_processors` CPUs: scaling submits by s divides offered load by
/// s, so s = inherent / target.
[[nodiscard]] double trace_scale_for_utilization(
    const TraceStreamSummary& summary, std::uint32_t total_processors,
    double target);

class TraceWorkload : public JobSource {
 public:
  explicit TraceWorkload(std::shared_ptr<const TraceWorkloadConfig> config);

  bool next(JobSpec& out) override;

  [[nodiscard]] const TraceWorkloadConfig& config() const { return *config_; }
  [[nodiscard]] std::uint64_t jobs_emitted() const { return emitted_; }

 private:
  /// Top up the lookahead window from the stream, skipping unusable
  /// records, until it holds `lookahead_window` records or the stream runs
  /// dry.
  void refill_lookahead();
  /// Put one usable record into the window: onto the ring when it sorts at
  /// or after the ring's back, else onto the straggler heap.
  void admit(const TraceRecord& rec);
  /// Take the window's earliest record out of it.
  TraceRecord take_earliest();
  void grow_ring();
  /// Slot of the ring record `offset` places behind the front.
  std::size_t ring_slot(std::size_t offset) const {
    const std::size_t slot = ring_head_ + offset;
    return slot < ring_.size() ? slot : slot - ring_.size();
  }
  void emit(const TraceRecord& rec, JobSpec& out);

  /// A record that arrived before the ring's back, with its arrival index:
  /// equal (submit, job id) keys leave the heap in file order.
  struct Straggler {
    TraceRecord record;
    std::uint64_t arrival = 0;
  };
  /// std::push_heap keeps the *largest* on top, so "after" puts the
  /// earliest (submit, job id, arrival) there.
  struct StragglerAfter {
    bool operator()(const Straggler& a, const Straggler& b) const;
  };

  std::shared_ptr<const TraceWorkloadConfig> config_;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<TraceRecordSource> stream_;
  /// Circular FIFO in (submit, job id) order: `ring_count_` records from
  /// slot `ring_head_`, wrapping at ring_.size(), the capacity.
  std::vector<TraceRecord> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  /// Min-heap (std::push_heap/pop_heap) by (submit, job id, arrival).
  /// Every straggler sorts strictly before the ring's back, so the ring is
  /// never empty while this is not.
  std::vector<Straggler> stragglers_;
  std::uint64_t admitted_ = 0;
  bool stream_exhausted_ = false;
  double last_submit_ = 0.0;
  std::uint64_t last_job_id_ = 0;
};

}  // namespace mcsim
