// The warm trace cache behind `mcsim serve`: (mtime, size) invalidation,
// the LRU byte budget, serve-don't-retain for oversize logs, and the
// resolver seam that must deliver the same scan and record order the
// file-backed path would — the precondition for warm runs being
// bit-identical to cold ones.
#include "serve/trace_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario_spec.hpp"
#include "trace/swf_stream.hpp"
#include "workload/trace_source.hpp"

namespace mcsim::serve {
namespace {

namespace fs = std::filesystem;

std::string record_line(std::uint64_t id, double submit, double run,
                        std::uint32_t procs) {
  std::ostringstream line;
  line << id << ' ' << submit << " 0 " << run << ' ' << procs << " -1 -1 "
       << procs << " -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  return line.str();
}

/// Write a small SWF log with `jobs` records (ids 1..jobs) under `dir`.
std::string write_log(const fs::path& dir, const std::string& name,
                      std::uint32_t jobs, double run = 50.0) {
  const fs::path path = dir / name;
  std::ofstream out(path);
  out << "; MaxNodes: 128\n";
  for (std::uint32_t i = 1; i <= jobs; ++i) {
    out << record_line(i, 10.0 * i, run, 4);
  }
  return path.string();
}

/// A per-test scratch directory under gtest's TempDir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("mcsim_cache_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Resident bytes one load of `path` charges (measured, not guessed, so
/// the budget arithmetic below tracks the implementation's accounting).
std::uint64_t entry_bytes(const std::string& path) {
  TraceCache probe(1ull << 30);
  probe.get(path);
  return probe.stats().resident_bytes;
}

TEST(ServeTraceCache, MissThenHit) {
  const fs::path dir = scratch_dir("miss_hit");
  const std::string log = write_log(dir, "a.swf", 3);

  TraceCache cache(1ull << 20);
  const auto first = cache.get(log);
  const auto second = cache.get(log);
  EXPECT_EQ(first.get(), second.get()) << "a hit returns the resident entry";
  ASSERT_EQ(first->records.size(), 3u);

  const TraceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.budget_bytes, 1ull << 20);
}

TEST(ServeTraceCache, RecordsStayInFileOrder) {
  // No sort at load: the replay's lookahead window orders the records, as
  // it does for a file. Unusable records are dropped.
  const fs::path dir = scratch_dir("file_order");
  const fs::path path = dir / "scrambled.swf";
  {
    std::ofstream out(path);
    out << record_line(3, 200.0, 50.0, 4) << record_line(1, 100.0, 50.0, 4)
        << record_line(4, 150.0, 0.0, 4)  // zero run time: cancelled
        << record_line(5, 100.0, 50.0, 4) << record_line(2, 300.0, 50.0, 4);
  }
  TraceCache cache(1ull << 20);
  const auto trace = cache.get(path.string());
  ASSERT_EQ(trace->records.size(), 4u);
  EXPECT_EQ(trace->records[0].job_id, 3u);
  EXPECT_EQ(trace->records[1].job_id, 1u);
  EXPECT_EQ(trace->records[2].job_id, 5u);
  EXPECT_EQ(trace->records[3].job_id, 2u);
  EXPECT_EQ(trace->scan.summary.total_records, 5u);
}

TEST(ServeTraceCache, RewrittenFileIsReloaded) {
  const fs::path dir = scratch_dir("invalidate");
  const std::string log = write_log(dir, "a.swf", 2);

  TraceCache cache(1ull << 20);
  EXPECT_EQ(cache.get(log)->records.size(), 2u);

  // Rewrite in place with more records; force the mtime forward explicitly
  // so the test cannot race a coarse filesystem clock.
  write_log(dir, "a.swf", 5);
  fs::last_write_time(log,
                      fs::last_write_time(log) + std::chrono::seconds(2));

  EXPECT_EQ(cache.get(log)->records.size(), 5u)
      << "a stale entry must be transparently reparsed";
  const TraceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeTraceCache, MtimeAloneInvalidates) {
  const fs::path dir = scratch_dir("mtime_only");
  const std::string log = write_log(dir, "a.swf", 2);

  TraceCache cache(1ull << 20);
  cache.get(log);
  // Same bytes, newer mtime: the (mtime, size) identity treats it as a new
  // file — a rewrite-with-identical-length must not serve stale records.
  fs::last_write_time(log,
                      fs::last_write_time(log) + std::chrono::seconds(2));
  cache.get(log);
  EXPECT_EQ(cache.stats().reloads, 1u);
}

TEST(ServeTraceCache, LruEvictionHonoursTheByteBudget) {
  const fs::path dir = scratch_dir("lru");
  const std::string log_a = write_log(dir, "a.swf", 4);
  const std::string log_b = write_log(dir, "b.swf", 4);
  const std::string log_c = write_log(dir, "c.swf", 4);
  const std::uint64_t bytes = entry_bytes(log_a);

  TraceCache cache(2 * bytes);  // room for exactly two of the three logs
  cache.get(log_a);
  cache.get(log_b);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.get(log_c);  // evicts a (least recently used)
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.get(log_b);  // still resident: a hit refreshes b ahead of c
  EXPECT_EQ(cache.stats().hits, 1u);

  cache.get(log_a);  // a was evicted -> a fresh miss, and c is now the victim
  TraceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);

  cache.get(log_b);  // the refreshed entry survived the second eviction
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ServeTraceCache, ZeroBudgetDisablesRetention) {
  const fs::path dir = scratch_dir("zero");
  const std::string log = write_log(dir, "a.swf", 2);

  TraceCache cache(0);
  EXPECT_EQ(cache.get(log)->records.size(), 2u);
  EXPECT_EQ(cache.get(log)->records.size(), 2u);
  const TraceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(ServeTraceCache, OversizeLogIsServedButNotRetained) {
  const fs::path dir = scratch_dir("oversize");
  const std::string small = write_log(dir, "small.swf", 2);
  const std::string big = write_log(dir, "big.swf", 64);

  TraceCache cache(entry_bytes(small));  // the big log cannot possibly fit
  EXPECT_EQ(cache.get(big)->records.size(), 64u);
  EXPECT_EQ(cache.stats().entries, 0u)
      << "a log larger than the whole budget must not be retained";
  cache.get(small);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ServeTraceCache, EvictionNeverInvalidatesAnInFlightTrace) {
  const fs::path dir = scratch_dir("shared");
  const std::string log = write_log(dir, "a.swf", 3);

  TraceCache cache(1ull << 20);
  const auto trace = cache.get(log);
  cache.clear();  // the harshest eviction
  EXPECT_EQ(cache.stats().entries, 0u);

  // Shares ownership of the entry past the eviction.
  VectorRecordSource source(
      std::shared_ptr<const std::vector<TraceRecord>>(trace, &trace->records));
  TraceRecord record;
  std::size_t count = 0;
  while (source.next(record)) ++count;
  EXPECT_EQ(count, 3u);
}

TEST(ServeTraceCache, DeclaredRecordCountSizesTheEntry) {
  const fs::path dir = scratch_dir("declared");
  // MaxRecords counts the cancelled record too, so the vector keeps one
  // slot of slack instead of paying for a copy; bytes charges it.
  const fs::path declared = dir / "declared.swf";
  {
    std::ofstream out(declared);
    out << "; MaxRecords: 4\n";
    for (std::uint32_t i = 1; i <= 3; ++i) out << record_line(i, 10.0 * i, 50.0, 4);
    out << record_line(4, 40.0, 0.0, 4);  // zero run time: not usable
  }
  TraceCache cache(1ull << 30);
  const auto trace = cache.get(declared.string());
  EXPECT_EQ(trace->records.size(), 3u);
  EXPECT_EQ(trace->records.capacity(), 4u);
  EXPECT_EQ(trace->bytes, 4 * sizeof(TraceRecord) + sizeof(CachedTrace));

  // A hostile header cannot reserve more than the file could hold: one
  // record per ten bytes, the shortest valid record line.
  const fs::path hostile = dir / "hostile.swf";
  {
    std::ofstream out(hostile);
    out << "; MaxRecords: 1000000000000\n";
    for (std::uint32_t i = 1; i <= 3; ++i) out << record_line(i, 10.0 * i, 50.0, 4);
  }
  const auto capped = cache.get(hostile.string());
  EXPECT_EQ(capped->records.size(), 3u);
  EXPECT_EQ(capped->records.capacity(), fs::file_size(hostile) / 10);

  // Without the directive the vector is trimmed to what it holds.
  const auto undeclared = cache.get(write_log(dir, "undeclared.swf", 5));
  EXPECT_EQ(undeclared->records.capacity(), 5u);
}

TEST(ServeTraceCache, MissingFileThrows) {
  TraceCache cache(1ull << 20);
  EXPECT_THROW(cache.get("/nonexistent/missing.swf"), std::invalid_argument);
}

/// The usable records a resolved source yields, in the order it yields them.
std::vector<TraceRecord> drain_usable(const exp::ResolvedTrace& resolved) {
  std::vector<TraceRecord> records;
  auto source = resolved.open_source();
  TraceRecord record;
  while (source->next(record)) {
    if (trace_record_usable(record)) records.push_back(record);
  }
  return records;
}

TEST(ServeTraceCache, ResolverMatchesTheFileBackedPath) {
  // A sorted synthetic log and a scrambled archive sample: the warm source
  // must yield the cold source's usable records in file order, so a served
  // run meets the same lookahead window as `mcsim run`.
  const fs::path dir = scratch_dir("resolver");
  const std::vector<std::string> logs = {
      write_log(dir, "a.swf", 4),
      std::string(MCSIM_DATA_DIR) + "/archive_samples/sdsc_sp2_style.swf"};

  TraceCache cache(1ull << 20);
  for (const std::string& log : logs) {
    SCOPED_TRACE(log);
    const exp::ResolvedTrace warm = cache.resolver()(log);
    const exp::ResolvedTrace cold = exp::resolve_trace_from_file(log);

    EXPECT_EQ(warm.scan.header.max_nodes, cold.scan.header.max_nodes);
    EXPECT_EQ(warm.scan.summary.total_records, cold.scan.summary.total_records);
    EXPECT_EQ(warm.scan.summary.usable_records, cold.scan.summary.usable_records);
    EXPECT_DOUBLE_EQ(warm.scan.summary.gross_work, cold.scan.summary.gross_work);

    const std::vector<TraceRecord> warm_records = drain_usable(warm);
    const std::vector<TraceRecord> cold_records = drain_usable(cold);
    ASSERT_EQ(warm_records.size(), cold_records.size());
    ASSERT_EQ(warm_records.size(), warm.scan.summary.usable_records);
    for (std::size_t i = 0; i < warm_records.size(); ++i) {
      EXPECT_EQ(warm_records[i].job_id, cold_records[i].job_id) << i;
      EXPECT_DOUBLE_EQ(warm_records[i].submit_time, cold_records[i].submit_time)
          << i;
      EXPECT_DOUBLE_EQ(warm_records[i].run_time, cold_records[i].run_time) << i;
    }
  }
  EXPECT_EQ(cache.stats().misses, logs.size());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ServeTraceCache, CachedScanEqualsTheFileScanOnEveryArchiveSample) {
  std::vector<std::string> logs;
  for (const auto& entry :
       fs::directory_iterator(std::string(MCSIM_DATA_DIR) + "/archive_samples")) {
    if (entry.path().extension() == ".swf") logs.push_back(entry.path().string());
  }
  std::sort(logs.begin(), logs.end());
  ASSERT_GE(logs.size(), 4u);
  TraceCache cache(1ull << 30);
  for (const std::string& log : logs) {
    const SwfScan cached = cache.get(log)->scan;
    const SwfScan scanned = scan_swf_file(log);
    EXPECT_EQ(cached.header.comments, scanned.header.comments) << log;
    EXPECT_EQ(cached.header.declared_processors(), scanned.header.declared_processors())
        << log;
    EXPECT_EQ(cached.summary.total_records, scanned.summary.total_records) << log;
    EXPECT_EQ(cached.summary.usable_records, scanned.summary.usable_records) << log;
    EXPECT_TRUE(same_bits(cached.summary.first_submit, scanned.summary.first_submit)) << log;
    EXPECT_TRUE(same_bits(cached.summary.last_submit, scanned.summary.last_submit)) << log;
    EXPECT_TRUE(same_bits(cached.summary.gross_work, scanned.summary.gross_work)) << log;
    EXPECT_EQ(cached.summary.max_processors, scanned.summary.max_processors) << log;
  }
  EXPECT_EQ(cache.stats().misses, logs.size());
}

}  // namespace
}  // namespace mcsim::serve
