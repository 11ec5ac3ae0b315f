#include "trace/swf_stream.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

namespace {
[[noreturn]] void parse_error(const std::string& source, std::uint64_t line_no,
                              const std::string& message) {
  // file:line prefix so a malformed record in a multi-million-line archive
  // log can actually be found.
  MCSIM_REQUIRE(false, source + ":" + std::to_string(line_no) + ": " + message);
  std::abort();  // unreachable: MCSIM_REQUIRE(false, ...) always throws
}

/// The numeric header directives the archive defines. Anything else after
/// a ';' stays a plain comment (logs carry free-text Computer/Note/
/// Conversion lines, and mcsim's own exports carry Command/Version lines).
std::int64_t* directive_slot(SwfHeaderInfo& header, std::string_view key) {
  const std::string lowered = to_lower(key);
  if (lowered == "maxjobs") return &header.max_jobs;
  if (lowered == "maxrecords") return &header.max_records;
  if (lowered == "maxnodes") return &header.max_nodes;
  if (lowered == "maxprocs") return &header.max_procs;
  if (lowered == "maxruntime") return &header.max_runtime;
  if (lowered == "maxqueues") return &header.max_queues;
  if (lowered == "maxpartitions") return &header.max_partitions;
  if (lowered == "unixstarttime") return &header.unix_start_time;
  return nullptr;
}

/// Fold one comment line (already stripped of the leading ';') into the
/// header: known `Key: value` directives are parsed and validated, the
/// line itself is always kept verbatim in comments.
void absorb_comment(SwfHeaderInfo& header, std::string_view comment,
                    const std::string& source, std::uint64_t line_no) {
  header.comments.emplace_back(comment);
  const std::size_t colon = comment.find(':');
  if (colon == std::string_view::npos) return;
  std::int64_t* slot = directive_slot(header, trim(comment.substr(0, colon)));
  if (slot == nullptr) return;
  const std::string value{trim(comment.substr(colon + 1))};
  char* parsed_end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &parsed_end, 10);
  if (value.empty() || parsed_end != value.c_str() + value.size() || parsed < 0) {
    parse_error(source, line_no,
                "header directive '" + std::string(trim(comment.substr(0, colon))) +
                    "' needs a non-negative integer, got '" + value + "'");
  }
  *slot = static_cast<std::int64_t>(parsed);
}

/// Parse a whole token exactly as a full-token std::strtod would: the same
/// tokens accepted and the same bits produced, only faster. Most SWF
/// fields are short integers, which take an exact fast path (up to 15
/// digits always fit a double's 53-bit mantissa); other decimals go
/// through std::from_chars, which is correctly rounded like strtod; and
/// whatever from_chars refuses, stops short on or makes non-finite
/// ('+5', '0x10', '1e400', '1e-400', 'inf', 'nan') is left to strtod
/// itself.
bool parse_number(std::string_view token, double& value) {
  const char* const first = token.data();
  const char* const last = first + token.size();
  const bool negative = first != last && *first == '-';
  const char* const digits = first + (negative ? 1 : 0);
  const auto digit_count = static_cast<std::size_t>(last - digits);
  if (digit_count >= 1 && digit_count <= 15) {
    std::int64_t magnitude = 0;
    const char* p = digits;
    for (; p != last; ++p) {
      const auto digit = static_cast<unsigned>(static_cast<unsigned char>(*p)) - '0';
      if (digit > 9) break;
      magnitude = magnitude * 10 + static_cast<std::int64_t>(digit);
    }
    if (p == last) {
      // -magnitude, not double(-magnitude): "-0" is -0.0 under strtod.
      const auto exact = static_cast<double>(magnitude);
      value = negative ? -exact : exact;
      return true;
    }
  }
  const std::from_chars_result parsed = std::from_chars(first, last, value);
  if (parsed.ec == std::errc() && parsed.ptr == last && std::isfinite(value)) return true;
  const std::string terminated{token};  // strtod needs a NUL-terminated copy
  char* parsed_end = nullptr;
  value = std::strtod(terminated.c_str(), &parsed_end);
  return !terminated.empty() && parsed_end == terminated.c_str() + terminated.size();
}

/// Convert SWF field `index` (0-based) to an integer member. A plain cast
/// of a non-finite double, or of one whose integer part the type cannot
/// hold, is undefined behaviour, so such a value is a `file:line:` error.
/// In range, the fraction is truncated as the cast always did.
template <typename Int>
Int field_integer(double value, std::size_t index, const char* name,
                  const std::string& source, std::uint64_t line_no) {
  constexpr double kBelow = static_cast<double>(std::numeric_limits<Int>::min()) - 1.0;
  constexpr double kAbove =
      static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1) * 2.0;
  if (!(value > kBelow && value < kAbove)) {
    parse_error(source, line_no,
                "field " + std::to_string(index + 1) + " (" + name + ") is out of range: " +
                    format_double_roundtrip(value));
  }
  return static_cast<Int>(value);
}
}  // namespace

SwfStreamReader::SwfStreamReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)), block_(kBlockBytes) {}

void SwfStreamReader::refill() {
  const std::size_t kept = end_ - begin_;
  if (begin_ > 0) {
    std::memmove(block_.data(), block_.data() + begin_, kept);
  } else if (kept == block_.size()) {
    block_.resize(block_.size() * 2);  // one line longer than the block
  }
  begin_ = 0;
  end_ = kept;
  in_.read(block_.data() + end_, static_cast<std::streamsize>(block_.size() - end_));
  end_ += static_cast<std::size_t>(in_.gcount());
  // A short read sets failbit, and so does an I/O error: either way the
  // stream has nothing more to give, and what did arrive is still parsed.
  if (!in_) exhausted_ = true;
}

bool SwfStreamReader::next_line(std::string_view& line) {
  for (;;) {
    const char* const start = block_.data() + begin_;
    const std::size_t available = end_ - begin_;
    if (const void* newline = std::memchr(start, '\n', available)) {
      const auto length = static_cast<std::size_t>(static_cast<const char*>(newline) - start);
      line = std::string_view(start, length);
      begin_ += length + 1;
      return true;
    }
    if (exhausted_) {
      if (available == 0) return false;
      line = std::string_view(start, available);  // last line, no trailing '\n'
      begin_ = end_;
      return true;
    }
    refill();
  }
}

bool SwfStreamReader::next(TraceRecord& out) {
  std::string_view line;
  while (next_line(line)) {
    ++line_no_;
    // trim() also strips '\r', so CRLF logs (common in archive downloads)
    // parse the same as LF ones.
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == ';') {
      absorb_comment(header_, trim(trimmed.substr(1)), source_, line_no_);
      continue;
    }

    // SWF prescribes 18 whitespace-separated fields, but real Parallel
    // Workloads Archive logs sometimes truncate unused trailing columns;
    // absent fields read as -1 ("unknown"), exactly as SWF spells missing
    // values. Extra columns are an error: the line is not SWF.
    double field[18];
    for (double& f : field) f = -1.0;
    std::size_t count = 0;
    std::size_t pos = 0;
    while (pos < trimmed.size()) {
      while (pos < trimmed.size() && (trimmed[pos] == ' ' || trimmed[pos] == '\t')) ++pos;
      if (pos >= trimmed.size()) break;
      std::size_t end = pos;
      while (end < trimmed.size() && trimmed[end] != ' ' && trimmed[end] != '\t') ++end;
      const std::string_view token = trimmed.substr(pos, end - pos);
      if (count >= 18) {
        parse_error(source_, line_no_, "expected at most 18 fields, found more");
      }
      if (!parse_number(token, field[count])) {
        parse_error(source_, line_no_,
                    "field " + std::to_string(count + 1) + " is not a number: '" +
                        std::string(token) + "'");
      }
      ++count;
      pos = end;
    }

    TraceRecord rec;
    rec.job_id = field_integer<std::uint64_t>(field[0], 0, "job id", source_, line_no_);
    rec.submit_time = field[1];
    rec.wait_time = field[2] >= 0 ? field[2] : 0.0;
    rec.run_time = field[3] >= 0 ? field[3] : 0.0;
    // Allocated processors (field 5), else requested (field 8). A negative
    // count means missing; a non-finite one is malformed, not missing.
    const std::size_t alloc = field[4] >= 0 || !std::isfinite(field[4]) ? 4 : 7;
    if (field[alloc] < 0 && std::isfinite(field[alloc])) {
      parse_error(source_, line_no_,
                  "no processor count (allocated and requested both missing)");
    }
    rec.processors =
        field_integer<std::uint32_t>(field[alloc], alloc, "processors", source_, line_no_);
    // Validate against the machine the header declares: a job wider than
    // the whole system means the log is internally inconsistent, and
    // replaying it would silently misreport utilization.
    const std::int64_t declared = header_.declared_processors();
    if (declared > 0 && static_cast<std::int64_t>(rec.processors) > declared) {
      parse_error(source_, line_no_,
                  "job requests " + std::to_string(rec.processors) +
                      " processors but the header declares " +
                      (header_.max_procs >= 0 ? "MaxProcs: " : "MaxNodes: ") +
                      std::to_string(declared));
    }
    rec.killed_by_limit =
        field_integer<int>(field[10], 10, "status", source_, line_no_) == 5;
    // A negative user id (SWF's -1) means unknown and reads as user 0.
    rec.user_id = field[11] < 0 && std::isfinite(field[11])
                      ? 0
                      : field_integer<std::uint32_t>(field[11], 11, "user id", source_,
                                                     line_no_);
    ++records_read_;
    out = rec;
    return true;
  }
  return false;
}

SwfFileStream::SwfFileStream(const std::string& path)
    : file_(path), reader_(file_, path) {
  MCSIM_REQUIRE(file_.good(), "cannot open trace file: " + path);
}

bool SwfFileStream::next(TraceRecord& out) { return reader_.next(out); }

SwfScan scan_swf_file(const std::string& path) {
  SwfFileStream stream(path);
  SwfScan scan;
  scan.summary = summarize_trace_source(stream);
  scan.header = stream.header();
  return scan;
}

}  // namespace mcsim
