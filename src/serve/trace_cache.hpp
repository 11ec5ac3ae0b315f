/// \file
/// \brief The warm trace cache: parsed SWF logs kept in memory between
/// served runs (docs/SERVING.md, "The warm cache").
///
/// Parsing a large SWF log dominates the cost of a short served run; the
/// whole point of a daemon over one-shot `mcsim run` is paying it once.
/// The cache maps a trace path to its validating scan plus the usable
/// records in file order — the stream the file-backed resolver delivers,
/// minus the unusable records. A served run re-sorts them through the same
/// bounded lookahead window as `mcsim run`, so a warm run is bit-identical
/// to a cold one and a log too scrambled for the spec's `lookahead` fails
/// the same way (tests/serve_server_test.cpp pins both).
///
/// Invalidation is by (mtime, size): every get() stats the file, and a log
/// rewritten in place is transparently reloaded. Residency is bounded by a
/// byte budget with least-recently-used eviction; a single log bigger than
/// the whole budget is served but not retained.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/scenario_spec.hpp"
#include "trace/record.hpp"
#include "trace/swf_stream.hpp"

namespace mcsim::serve {

/// One cached log: the scan plus its usable records. Shared (shared_ptr)
/// so an eviction never invalidates a run in flight.
struct CachedTrace {
  SwfScan scan;
  /// The log's usable records in file order.
  std::vector<TraceRecord> records;
  /// Approximate resident size charged against the cache budget.
  std::uint64_t bytes = 0;
};

/// Cumulative counters, reported by the `stats` op.
struct TraceCacheStats {
  std::uint64_t hits = 0;        ///< served from memory
  std::uint64_t misses = 0;      ///< first load of a path
  std::uint64_t reloads = 0;     ///< (mtime, size) changed -> reparsed
  std::uint64_t evictions = 0;   ///< LRU entries dropped for the budget
  std::uint64_t entries = 0;     ///< currently resident logs
  std::uint64_t resident_bytes = 0;
  std::uint64_t budget_bytes = 0;
};

/// Thread-safe LRU cache of parsed traces keyed by path. Safe to call from
/// concurrent runner workers: lookups and loads are serialized (a served
/// run's cost is the simulation, not the lock).
class TraceCache {
 public:
  /// `budget_bytes` bounds resident record storage; 0 disables retention
  /// entirely (every get() is a load — the cold-path reference mode the
  /// bench compares against).
  explicit TraceCache(std::uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// Fetch `path`, loading or reloading as needed. Throws
  /// std::invalid_argument (from the SWF reader) when the file is missing
  /// or malformed — the server maps that to a structured run failure.
  std::shared_ptr<const CachedTrace> get(const std::string& path);

  /// An exp::TraceResolver serving scans and record streams from this
  /// cache — the seam to_simulation_config() accepts.
  [[nodiscard]] exp::TraceResolver resolver();

  [[nodiscard]] TraceCacheStats stats() const;

  /// Drop every entry (counters survive; used by tests).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const CachedTrace> trace;
    std::int64_t mtime_ns = 0;
    std::uint64_t size = 0;
    /// Position in lru_ (most-recent at front).
    std::list<std::string>::iterator lru_position;
  };

  /// Evict least-recently-used entries until `incoming` more bytes fit.
  /// Caller holds mutex_.
  void make_room(std::uint64_t incoming);

  mutable std::mutex mutex_;
  std::uint64_t budget_bytes_;
  std::uint64_t resident_bytes_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  /// LRU order, most recently used first; values are entries_ keys.
  std::list<std::string> lru_;
  TraceCacheStats counters_;
};

}  // namespace mcsim::serve
