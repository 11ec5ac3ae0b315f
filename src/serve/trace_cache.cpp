#include "serve/trace_cache.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "workload/trace_source.hpp"

namespace mcsim::serve {

namespace {

struct FileIdentity {
  std::int64_t mtime_ns = 0;
  std::uint64_t size = 0;
};

FileIdentity stat_identity(const std::string& path) {
  struct stat info{};
  if (::stat(path.c_str(), &info) != 0) {
    throw std::invalid_argument("mcsim: cannot stat trace file " + path + ": " +
                                std::strerror(errno));
  }
  FileIdentity identity;
  identity.mtime_ns = static_cast<std::int64_t>(info.st_mtim.tv_sec) * 1'000'000'000 +
                      info.st_mtim.tv_nsec;
  identity.size = static_cast<std::uint64_t>(info.st_size);
  return identity;
}

/// The shortest valid record line: five one-digit fields (the fifth is the
/// processor count), their four separators and the newline.
constexpr std::uint64_t kShortestRecordBytes = 10;

std::shared_ptr<const CachedTrace> load_trace(const std::string& path, std::uint64_t file_bytes) {
  // One serial pass builds the scan (as scan_swf_file does) and keeps the
  // usable records in file order; the replay's lookahead window sorts them.
  std::ifstream file(path);
  MCSIM_REQUIRE(file.good(), "cannot open trace file: " + path);
  SwfStreamReader reader(file, path);
  auto trace = std::make_shared<CachedTrace>();
  TraceRecord record;
  bool more = reader.next(record);
  // The header is complete once the first record is read. A declared
  // record count sizes the vector in one allocation, capped by what the
  // file can hold so that a hostile header cannot force a large one.
  const std::int64_t declared = reader.header().max_records;
  if (declared >= 0) {
    trace->records.reserve(static_cast<std::size_t>(std::min(
        static_cast<std::uint64_t>(declared), file_bytes / kShortestRecordBytes)));
  }
  for (; more; more = reader.next(record)) {
    trace->scan.summary.add(record);
    if (trace_record_usable(record)) trace->records.push_back(record);
  }
  trace->scan.header = reader.header();
  // Without a declared count, drop the growth slack: the entry stays
  // resident, so it should cost what it holds. (A reserved vector keeps its
  // capacity, which bytes counts, rather than pay for a copy.)
  if (declared < 0) trace->records.shrink_to_fit();
  trace->bytes = trace->records.capacity() * sizeof(TraceRecord) +
                 sizeof(CachedTrace);
  return trace;
}

}  // namespace

std::shared_ptr<const CachedTrace> TraceCache::get(const std::string& path) {
  const FileIdentity identity = stat_identity(path);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = entries_.find(path);
    if (found != entries_.end()) {
      Entry& entry = found->second;
      if (entry.mtime_ns == identity.mtime_ns && entry.size == identity.size) {
        ++counters_.hits;
        lru_.splice(lru_.begin(), lru_, entry.lru_position);
        return entry.trace;
      }
      // Stale: the file changed underneath us. Drop the entry and fall
      // through to a fresh load (counted as a reload, not a miss).
      resident_bytes_ -= entry.trace->bytes;
      lru_.erase(entry.lru_position);
      entries_.erase(found);
      ++counters_.reloads;
    } else {
      ++counters_.misses;
    }
  }

  // Parse outside the lock: concurrent submits for *different* logs load in
  // parallel; a duplicate concurrent load of the same log costs a redundant
  // parse, never a wrong answer (last one in wins the cache slot).
  std::shared_ptr<const CachedTrace> trace = load_trace(path, identity.size);

  std::lock_guard<std::mutex> lock(mutex_);
  if (trace->bytes <= budget_bytes_) {
    auto found = entries_.find(path);
    if (found != entries_.end()) {
      resident_bytes_ -= found->second.trace->bytes;
      lru_.erase(found->second.lru_position);
      entries_.erase(found);
    }
    make_room(trace->bytes);
    lru_.push_front(path);
    Entry entry;
    entry.trace = trace;
    entry.mtime_ns = identity.mtime_ns;
    entry.size = identity.size;
    entry.lru_position = lru_.begin();
    entries_.emplace(path, std::move(entry));
    resident_bytes_ += trace->bytes;
  }
  // else: oversize for the whole budget — serve it, retain nothing.
  return trace;
}

void TraceCache::make_room(std::uint64_t incoming) {
  while (!lru_.empty() && resident_bytes_ + incoming > budget_bytes_) {
    const std::string& victim = lru_.back();
    auto found = entries_.find(victim);
    MCSIM_ASSERT(found != entries_.end());
    resident_bytes_ -= found->second.trace->bytes;
    entries_.erase(found);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

exp::TraceResolver TraceCache::resolver() {
  return [this](const std::string& path) {
    std::shared_ptr<const CachedTrace> trace = get(path);
    exp::ResolvedTrace resolved;
    resolved.scan = trace->scan;
    // Aliasing pointer: the source reads the records and keeps the whole
    // entry alive past an eviction.
    std::shared_ptr<const std::vector<TraceRecord>> records(trace, &trace->records);
    resolved.open_source = [records]() -> std::unique_ptr<TraceRecordSource> {
      return std::make_unique<VectorRecordSource>(records);
    };
    return resolved;
  };
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceCacheStats out = counters_;
  out.entries = entries_.size();
  out.resident_bytes = resident_bytes_;
  out.budget_bytes = budget_bytes_;
  return out;
}

void TraceCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

}  // namespace mcsim::serve
