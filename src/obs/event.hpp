/// \file
/// \brief The per-job trace-event taxonomy of the observability layer.
///
/// Every scheduling decision the engine or a policy makes is describable as
/// a fixed-size, trivially copyable TraceEvent, so a recorder can store
/// events in a flat binary ring without allocation and an exporter can
/// reconstruct the realised schedule (docs/TRACING.md documents the
/// taxonomy and the SWF field mapping).
#pragma once

#include <cstdint>
#include <type_traits>

namespace mcsim::obs {

/// What happened to a job. The lifecycle of one job is
///   kArrival -> kHeadOfQueue -> (kPlacementAttempt [kPlacementReject])*
///            -> kStart -> kFinish
/// where the attempt/reject pairs repeat each time the scheduler considers
/// the job (on arrivals and departures) until a placement succeeds.
enum class EventKind : std::uint8_t {
  kArrival = 0,           ///< The job entered the system (submit time).
  kHeadOfQueue = 1,       ///< First time the scheduler considered the job
                          ///< (it reached the head of its queue, or a
                          ///< backfilling window reached it).
  kPlacementAttempt = 2,  ///< The scheduler asked the placement rule for an
                          ///< allocation.
  kPlacementReject = 3,   ///< The placement rule found no room; the job
                          ///< keeps waiting (its queue may be disabled).
  kStart = 4,             ///< Processors allocated; execution begins.
  kFinish = 5,            ///< The job departed and released its processors.
};

/// One observed event: a POD of 32 bytes, so a ring buffer of events is a
/// contiguous binary recording.
///
/// `value` carries the kind-specific payload measured in seconds:
/// for kStart the job's wait time (start - submit), for kFinish the
/// realised run time (finish - start, i.e. the gross service time over the
/// slowest allocated cluster's speed); 0 otherwise.
struct TraceEvent {
  double time = 0.0;         ///< Simulation timestamp (seconds).
  double value = 0.0;        ///< Kind-specific payload (see above).
  std::uint64_t job = 0;     ///< Job id (JobSpec::id).
  std::uint32_t size = 0;    ///< Total processors the job requests.
  EventKind kind = EventKind::kArrival;
  std::uint8_t components = 0;  ///< Component count of the request.
  std::int16_t cluster = -1;    ///< Cluster involved (-1: none/whole system).
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay binary-recordable");
static_assert(sizeof(TraceEvent) == 32, "TraceEvent is packed to 32 bytes");

}  // namespace mcsim::obs
