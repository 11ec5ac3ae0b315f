#include "trace/swf_stream.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>
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
using DirectiveField = std::int64_t SwfHeaderInfo::*;
DirectiveField directive_field(std::string_view key) {
  const std::string lowered = to_lower(key);
  if (lowered == "maxjobs") return &SwfHeaderInfo::max_jobs;
  if (lowered == "maxrecords") return &SwfHeaderInfo::max_records;
  if (lowered == "maxnodes") return &SwfHeaderInfo::max_nodes;
  if (lowered == "maxprocs") return &SwfHeaderInfo::max_procs;
  if (lowered == "maxruntime") return &SwfHeaderInfo::max_runtime;
  if (lowered == "maxqueues") return &SwfHeaderInfo::max_queues;
  if (lowered == "maxpartitions") return &SwfHeaderInfo::max_partitions;
  if (lowered == "unixstarttime") return &SwfHeaderInfo::unix_start_time;
  return nullptr;
}

/// The directive a comment line (stripped of the leading ';') sets, or
/// null for a plain comment.
DirectiveField comment_directive(std::string_view comment) {
  const std::size_t colon = comment.find(':');
  if (colon == std::string_view::npos) return nullptr;
  return directive_field(trim(comment.substr(0, colon)));
}

/// Fold one comment line (already stripped of the leading ';') into the
/// header: known `Key: value` directives are parsed and validated, the
/// line itself is always kept verbatim in comments.
void absorb_comment(SwfHeaderInfo& header, std::string_view comment,
                    const std::string& source, std::uint64_t line_no) {
  header.comments.emplace_back(comment);
  const DirectiveField field = comment_directive(comment);
  if (field == nullptr) return;
  const std::size_t colon = comment.find(':');
  const std::string value{trim(comment.substr(colon + 1))};
  char* parsed_end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &parsed_end, 10);
  if (value.empty() || parsed_end != value.c_str() + value.size() || parsed < 0) {
    parse_error(source, line_no,
                "header directive '" + std::string(trim(comment.substr(0, colon))) +
                    "' needs a non-negative integer, got '" + value + "'");
  }
  header.*field = static_cast<std::int64_t>(parsed);
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

// -- the record-line parser ----------------------------------------------------
//
// Field boundaries are found a word at a time: eight bytes are loaded as one
// 64-bit integer, a carry-free mask marks the bytes that are separators, and
// the marks of a 64-byte stretch become one bitmap whose changes are the
// field edges. An edge then costs a count of trailing zeros instead of a
// byte loop that mispredicts at every one of them. Only the fields a
// TraceRecord reads are converted to doubles; the rest are only validated,
// and a short plain integer (the common '-1') by one word test.

constexpr std::uint64_t kOnes = 0x0101010101010101;
constexpr std::uint64_t kHigh = kOnes * 0x80;
constexpr std::uint64_t kLow7 = kOnes * 0x7f;

/// p[0..8) as one word with byte i in bits 8i..8i+7 on every host (the
/// compiler turns the expression into a single load).
std::uint64_t load_word(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return std::uint64_t{b[0]} | std::uint64_t{b[1]} << 8 | std::uint64_t{b[2]} << 16 |
         std::uint64_t{b[3]} << 24 | std::uint64_t{b[4]} << 32 | std::uint64_t{b[5]} << 40 |
         std::uint64_t{b[6]} << 48 | std::uint64_t{b[7]} << 56;
}

/// The eight bytes from `p`, bytes at or past `end` reading as ' '. Needs
/// p < end and at least eight bytes of the line before `end`.
std::uint64_t word_at(const char* p, const char* end) {
  const std::ptrdiff_t left = end - p;
  if (left >= 8) return load_word(p);
  const std::uint64_t tail = load_word(end - 8) >> (8 * (8 - left));
  return tail | (kOnes * ' ') << (8 * left);
}

/// 0x80 in each zero byte of `word`, 0 in every other byte. No carry
/// crosses a byte, so the mask is exact.
std::uint64_t zero_bytes(std::uint64_t word) {
  return ~(((word & kLow7) + kLow7) | word | kLow7);
}

/// 0x80 in each byte of `word` that separates fields (' ' or '\t').
std::uint64_t separator_bytes(std::uint64_t word) {
  return zero_bytes(word ^ (kOnes * ' ')) | zero_bytes(word ^ (kOnes * '\t'));
}

/// 0x80 in each byte of `word` that is not an ASCII digit.
std::uint64_t non_digit_bytes(std::uint64_t word) {
  const std::uint64_t offset = word ^ (kOnes * '0');
  return (((offset & kLow7) + kOnes * 0x76) | offset) & kHigh;
}

/// The value of the `digits` (1..8) ASCII digits in the low bytes of
/// `word`, most significant first, converted as one word.
std::uint64_t digits_value(std::uint64_t word, std::size_t digits) {
  std::uint64_t value = (word << (8 * (8 - digits))) & (kOnes * 0x0f);
  value = (value * 2561) >> 8;
  value = ((value & 0x00ff00ff00ff00ff) * 6553601) >> 16;
  return ((value & 0x0000ffff0000ffff) * 42949672960001) >> 32;
}

/// Check `token` (its first eight bytes in `word`) exactly as parse_number
/// would, and store its value when `wanted`. A plain integer of at most
/// eight bytes takes the one-word path; every other token goes to
/// parse_number, so the set of accepted tokens is unchanged.
bool read_token(std::string_view token, std::uint64_t word, bool wanted, double& value) {
  if (token.size() <= 8) {
    const bool negative = (word & 0xff) == '-';
    const std::size_t digits = token.size() - (negative ? 1 : 0);
    const std::uint64_t body = negative ? word >> 8 : word;
    const std::uint64_t in_token =
        digits == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * digits)) - 1;
    if (digits > 0 && (non_digit_bytes(body) & in_token) == 0) {
      if (wanted) {
        // -exact, not double(-n): "-0" is -0.0 under strtod.
        const auto exact = static_cast<double>(digits_value(body, digits));
        value = negative ? -exact : exact;
      }
      return true;
    }
  }
  double parsed = 0.0;
  if (!parse_number(token, parsed)) return false;
  if (wanted) value = parsed;
  return true;
}

/// Bit i set when byte `offset + i` of `line` separates fields; bytes past
/// the line count as separators. The eight word loads are independent, so
/// they overlap instead of waiting on each other like a byte loop's edges.
std::uint64_t separator_bits(std::string_view line, std::size_t offset) {
  const char* const end = line.data() + line.size();
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::size_t at = offset + 8 * k;
    const std::uint64_t marks =
        at < line.size() ? separator_bytes(word_at(line.data() + at, end)) : kHigh;
    // Gather the eight 0x80 marks into eight adjacent bits.
    bits |= (((marks >> 7) * 0x0102040810204080) >> 56) << (8 * k);
  }
  return bits;
}

/// Fields an SWF record line has at most.
constexpr std::size_t kSwfFields = 18;

/// SWF fields (0-based) a TraceRecord reads: job id, submit, wait, run,
/// allocated processors, status and user. Field 8 (requested processors)
/// is read only when field 5 says the allocation is missing.
constexpr std::uint32_t kValueFields = 1u << 0 | 1u << 1 | 1u << 2 | 1u << 3 | 1u << 4 |
                                       1u << 10 | 1u << 11;

/// The field the processor count comes from: allocated (field 5), else
/// requested (field 8). A negative count means missing; a non-finite one is
/// malformed, not missing.
std::size_t processor_field(double allocated) {
  return allocated >= 0 || !std::isfinite(allocated) ? 4 : 7;
}

/// Parse one record line (trimmed, not blank, not a comment) into `out`,
/// checked against the machine `header` declares: the one tokenizer behind
/// every reader. Throws std::invalid_argument with a `source:line:` prefix
/// on malformed input; `out` is then untouched.
void parse_record_line(std::string_view line, const SwfHeaderInfo& header,
                       const std::string& source, std::uint64_t line_no, TraceRecord& out) {
  // Word loads read up to eight bytes back from the line's end, so a shorter
  // line is padded with separators, which add no field.
  char padded[8];
  if (line.size() < sizeof padded) {
    std::memset(padded, ' ', sizeof padded);
    std::memcpy(padded, line.data(), line.size());
    line = std::string_view(padded, sizeof padded);
  }

  // SWF prescribes 18 whitespace-separated fields, but real Parallel
  // Workloads Archive logs sometimes truncate unused trailing columns;
  // absent fields read as -1 ("unknown"), exactly as SWF spells missing
  // values. Extra columns are an error: the line is not SWF.
  //
  // Field edges, starts at even and ends at odd indices: every place where
  // a separator and a field byte meet, up to the start of a 19th field.
  constexpr std::size_t kMaxEdges = 2 * (kSwfFields + 1);
  std::size_t edge[kMaxEdges];
  std::size_t edges = 0;
  std::uint64_t before = 1;  // the line starts after a separator
  for (std::size_t offset = 0; offset < line.size() && edges < kMaxEdges; offset += 64) {
    const std::uint64_t separators = separator_bits(line, offset);
    std::uint64_t changes = separators ^ ((separators << 1) | before);
    before = separators >> 63;
    while (changes != 0 && edges < kMaxEdges) {
      edge[edges++] = offset + static_cast<std::size_t>(std::countr_zero(changes));
      changes &= changes - 1;
    }
  }
  if (edges % 2 != 0) edge[edges++] = line.size();  // the last field ends the line

  double field[kSwfFields];
  for (double& f : field) f = -1.0;
  for (std::size_t index = 0; index < edges / 2; ++index) {
    if (index >= kSwfFields) {
      parse_error(source, line_no, "expected at most 18 fields, found more");
    }
    const std::size_t start = edge[2 * index];
    const std::string_view token = line.substr(start, edge[2 * index + 1] - start);
    const bool wanted = ((kValueFields >> index) & 1u) != 0 ||
                        (index == 7 && processor_field(field[4]) == 7);
    if (!read_token(token, word_at(token.data(), line.data() + line.size()), wanted,
                    field[index])) {
      parse_error(source, line_no,
                  "field " + std::to_string(index + 1) + " is not a number: '" +
                      std::string(token) + "'");
    }
  }

  TraceRecord rec;
  rec.job_id = field_integer<std::uint64_t>(field[0], 0, "job id", source, line_no);
  rec.submit_time = field[1];
  rec.wait_time = field[2] >= 0 ? field[2] : 0.0;
  rec.run_time = field[3] >= 0 ? field[3] : 0.0;
  const std::size_t alloc = processor_field(field[4]);
  if (field[alloc] < 0 && std::isfinite(field[alloc])) {
    parse_error(source, line_no, "no processor count (allocated and requested both missing)");
  }
  rec.processors =
      field_integer<std::uint32_t>(field[alloc], alloc, "processors", source, line_no);
  // Validate against the machine the header declares: a job wider than
  // the whole system means the log is internally inconsistent, and
  // replaying it would silently misreport utilization.
  const std::int64_t declared = header.declared_processors();
  if (declared > 0 && static_cast<std::int64_t>(rec.processors) > declared) {
    parse_error(source, line_no,
                "job requests " + std::to_string(rec.processors) +
                    " processors but the header declares " +
                    (header.max_procs >= 0 ? "MaxProcs: " : "MaxNodes: ") +
                    std::to_string(declared));
  }
  rec.killed_by_limit = field_integer<int>(field[10], 10, "status", source, line_no) == 5;
  // A negative user id (SWF's -1) means unknown and reads as user 0.
  rec.user_id = field[11] < 0 && std::isfinite(field[11])
                    ? 0
                    : field_integer<std::uint32_t>(field[11], 11, "user id", source, line_no);
  out = rec;
}

/// `path` opened for reading, or a `cannot open` error.
std::ifstream open_log(const std::string& path) {
  std::ifstream file(path);
  MCSIM_REQUIRE(file.good(), "cannot open trace file: " + path);
  return file;
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
    parse_record_line(trimmed, header_, source_, line_no_, out);
    ++records_read_;
    return true;
  }
  return false;
}

class SwfFileStream::Prefetcher {
 public:
  explicit Prefetcher(const std::string& path) : file_(open_log(path)), reader_(file_, path) {
    // The three batches swap places and never reallocate.
    batch_.reserve(kBatchRecords);
    slot_.reserve(kBatchRecords);
    parser_ = std::thread(&Prefetcher::parse_ahead, this);
  }

  ~Prefetcher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    slot_emptied_.notify_one();
    parser_.join();
  }

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  bool next(TraceRecord& out) {
    while (cursor_ == batch_.size()) {
      if (batch_is_last_) {
        if (error_) std::rethrow_exception(error_);
        return false;
      }
      take_batch();
    }
    out = batch_[cursor_++];
    return true;
  }

 private:
  /// Wait for the helper's next batch and swap it in for the spent one.
  void take_batch() {
    std::unique_lock<std::mutex> lock(mutex_);
    slot_filled_.wait(lock, [this] { return slot_full_; });
    batch_.swap(slot_);
    slot_full_ = false;
    batch_is_last_ = slot_is_last_;
    lock.unlock();
    slot_emptied_.notify_one();
    cursor_ = 0;
  }

  /// The helper thread's body: parse batches and hand them over until the
  /// log ends, a line is malformed or the stream is destroyed.
  void parse_ahead() {
    std::vector<TraceRecord> batch;
    batch.reserve(kBatchRecords);
    for (;;) {
      batch.clear();
      std::exception_ptr error;
      try {
        TraceRecord record;
        while (batch.size() < kBatchRecords && reader_.next(record)) batch.push_back(record);
      } catch (...) {
        // The records before the bad line still go out, in this batch.
        error = std::current_exception();
      }
      // A short batch is the last: the log ended, or its next line was bad.
      const bool last = batch.size() < kBatchRecords;
      std::unique_lock<std::mutex> lock(mutex_);
      slot_emptied_.wait(lock, [this] { return !slot_full_ || stopping_; });
      if (stopping_) return;
      slot_.swap(batch);
      slot_full_ = true;
      slot_is_last_ = last;
      error_ = std::move(error);
      lock.unlock();
      slot_filled_.notify_one();
      if (last) return;
    }
  }

  std::ifstream file_;
  SwfStreamReader reader_;  ///< used only by the helper thread

  // Caller side: the batch being handed out.
  std::vector<TraceRecord> batch_;
  std::size_t cursor_ = 0;
  bool batch_is_last_ = false;

  // The handoff slot, guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable slot_filled_;
  std::condition_variable slot_emptied_;
  std::vector<TraceRecord> slot_;
  bool slot_full_ = false;
  bool slot_is_last_ = false;
  bool stopping_ = false;
  /// Handed over with every batch; non-null only with the last one, when
  /// the parse failed.
  std::exception_ptr error_;

  std::thread parser_;  ///< started last, after every member above exists
};

SwfFileStream::SwfFileStream(const std::string& path)
    : prefetcher_(std::make_unique<Prefetcher>(path)) {}

SwfFileStream::~SwfFileStream() = default;

bool SwfFileStream::next(TraceRecord& out) { return prefetcher_->next(out); }

namespace {

/// scan_swf_file's pass over `path` with one SwfStreamReader: the reference
/// the chunked scan must equal, and its fallback.
SwfScan serial_scan(const std::string& path) {
  std::ifstream file = open_log(path);
  SwfStreamReader reader(file, path);
  SwfScan scan;
  TraceRecord record;
  while (reader.next(record)) scan.summary.add(record);
  scan.header = reader.header();
  return scan;
}

/// The chunked pass behind scan_swf_file (see its comment in the header).
/// The calling thread reads the log in newline-ended chunks into a window
/// of kWindow slots; it and one helper parse them, and the caller folds
/// them in file order.
class ChunkedScan {
 public:
  /// Chunks read but not yet folded, at most: the scan's memory bound.
  static constexpr std::size_t kWindow = 4;

  explicit ChunkedScan(const std::string& path) : path_(path), file_(open_log(path)) {}

  ~ChunkedScan() { stop(); }

  ChunkedScan(const ChunkedScan&) = delete;
  ChunkedScan& operator=(const ChunkedScan&) = delete;

  /// The scan, or nothing when a chunk holds a line only the serial reader
  /// can judge: a malformed record (whose message needs its line number)
  /// or a directive after the leading comment block (which changes how the
  /// records after it are checked).
  std::optional<SwfScan> run();

 private:
  enum class State { kFree, kRead, kParsing, kParsed };

  struct Chunk {
    State state = State::kFree;  ///< guarded by mutex_
    std::vector<char> text;      ///< whole lines; the last may lack its '\n'
    std::size_t body = 0;        ///< where the lines to parse start in text
    /// What parsing yields: counts, submit range and widest job (its
    /// gross_work is unused), ...
    TraceStreamSummary summary;
    /// ... processors * run_time of each usable record, in file order, so
    /// the caller can continue the one left-to-right gross_work sum ...
    std::vector<double> work;
    /// ... and the comment lines, in file order.
    std::vector<std::string> comments;
    bool serial_only = false;
  };

  Chunk& slot(std::size_t index) { return slots_[index % kWindow]; }

  /// Fill `text` with the next whole lines of the log; false at its end.
  bool read_chunk(std::vector<char>& text);
  /// Fold the comment lines and blanks at the top of `text` into header_;
  /// returns where the first record line starts.
  std::size_t read_leading_comments(const std::vector<char>& text);
  void parse(Chunk& chunk) const;
  /// The oldest chunk read and not yet taken for parsing. Caller holds mutex_.
  Chunk* unparsed_chunk();
  /// The helper thread's body: parse chunks until none are left.
  void help();
  void stop();

  const std::string& path_;
  std::ifstream file_;
  std::string carry_;       ///< a partial last line, read and not yet handed out
  bool exhausted_ = false;  ///< file_ has no more bytes to give
  /// The leading comment block's header: complete before any record is
  /// parsed, and read-only while the helper runs.
  SwfHeaderInfo header_;

  std::mutex mutex_;
  std::condition_variable chunk_read_;    ///< wakes the helper
  std::condition_variable chunk_parsed_;  ///< wakes the caller
  Chunk slots_[kWindow];
  std::size_t read_ = 0;    ///< chunks read so far
  std::size_t folded_ = 0;  ///< chunks folded so far
  bool more_ = true;        ///< the log has lines not yet read
  bool stopping_ = false;

  std::thread helper_;  ///< started last, after every member above exists
};

bool ChunkedScan::read_chunk(std::vector<char>& text) {
  text.assign(carry_.begin(), carry_.end());
  carry_.clear();
  while (!exhausted_) {
    // Fill the chunk to kSwfScanChunkBytes, so a slot's buffer keeps one
    // size; only a line longer than that grows it.
    const std::size_t kept = text.size();
    const std::size_t wanted =
        kept < kSwfScanChunkBytes ? kSwfScanChunkBytes - kept : kSwfScanChunkBytes;
    text.resize(kept + wanted);
    file_.read(text.data() + kept, static_cast<std::streamsize>(wanted));
    text.resize(kept + static_cast<std::size_t>(file_.gcount()));
    // A short read (end of file or an I/O error) leaves nothing more to
    // read; what did arrive is still parsed, as SwfStreamReader does.
    if (!file_) {
      exhausted_ = true;
      break;
    }
    // Cut after the last newline; a line longer than a chunk reads on.
    const std::string_view fresh(text.data() + kept, text.size() - kept);
    const std::size_t newline = fresh.rfind('\n');
    if (newline != std::string_view::npos) {
      carry_.assign(fresh.substr(newline + 1));
      text.resize(kept + newline + 1);
      break;
    }
  }
  return !text.empty();
}

std::size_t ChunkedScan::read_leading_comments(const std::vector<char>& text) {
  const std::string_view all(text.data(), text.size());
  std::size_t at = 0;
  std::uint64_t line_no = 0;
  while (at < all.size()) {
    const std::size_t newline = all.find('\n', at);
    const std::size_t next = newline == std::string_view::npos ? all.size() : newline + 1;
    const std::string_view trimmed = trim(all.substr(at, next - at));
    if (!trimmed.empty() && trimmed.front() != ';') break;
    ++line_no;
    if (!trimmed.empty()) absorb_comment(header_, trim(trimmed.substr(1)), path_, line_no);
    at = next;
  }
  return at;
}

void ChunkedScan::parse(Chunk& chunk) const {
  chunk.summary = TraceStreamSummary{};
  chunk.work.clear();
  chunk.comments.clear();
  chunk.serial_only = false;
  try {
    std::string_view rest(chunk.text.data() + chunk.body, chunk.text.size() - chunk.body);
    while (!rest.empty()) {
      const std::size_t newline = rest.find('\n');
      const std::string_view trimmed = trim(rest.substr(0, newline));
      rest.remove_prefix(newline == std::string_view::npos ? rest.size() : newline + 1);
      if (trimmed.empty()) continue;
      if (trimmed.front() == ';') {
        const std::string_view comment = trim(trimmed.substr(1));
        if (comment_directive(comment) != nullptr) {
          chunk.serial_only = true;
          return;
        }
        chunk.comments.emplace_back(comment);
        continue;
      }
      TraceRecord record;
      parse_record_line(trimmed, header_, path_, 0, record);
      chunk.summary.add(record);
      if (trace_record_usable(record)) {
        chunk.work.push_back(static_cast<double>(record.processors) * record.run_time);
      }
    }
  } catch (...) {
    // The serial pass throws the same error with the right line number.
    chunk.serial_only = true;
  }
}

ChunkedScan::Chunk* ChunkedScan::unparsed_chunk() {
  for (std::size_t index = folded_; index < read_; ++index) {
    if (slot(index).state == State::kRead) return &slot(index);
  }
  return nullptr;
}

void ChunkedScan::help() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Chunk* chunk = nullptr;
    chunk_read_.wait(lock, [&] {
      chunk = unparsed_chunk();
      return chunk != nullptr || stopping_ || !more_;
    });
    if (chunk == nullptr || stopping_) return;
    chunk->state = State::kParsing;
    lock.unlock();
    parse(*chunk);
    lock.lock();
    chunk->state = State::kParsed;
    chunk_parsed_.notify_one();
  }
}

void ChunkedScan::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  chunk_read_.notify_one();
  if (helper_.joinable()) helper_.join();
}

std::optional<SwfScan> ChunkedScan::run() {
  Chunk& first = slots_[0];
  if (!read_chunk(first.text)) return SwfScan{};  // an empty log
  first.body = read_leading_comments(first.text);
  first.state = State::kRead;
  read_ = 1;
  more_ = !exhausted_ || !carry_.empty();
  // A log that fits one chunk is parsed on the calling thread alone.
  if (more_) helper_ = std::thread(&ChunkedScan::help, this);

  TraceStreamSummary summary;
  std::vector<std::string> comments;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Chunk& next = slot(folded_);
    if (folded_ < read_ && next.state == State::kParsed) {
      lock.unlock();
      if (next.serial_only) return std::nullopt;
      // The fold continues the serial one: counts add up, min and max take
      // their arguments in TraceStreamSummary::add's order (so ties between
      // -0.0 and +0.0 resolve alike), and gross_work adds the same products
      // in the same order, so every bit matches.
      const TraceStreamSummary& part = next.summary;
      summary.total_records += part.total_records;
      if (part.usable_records > 0) {
        if (summary.usable_records == 0) {
          summary.first_submit = part.first_submit;
          summary.last_submit = part.last_submit;
        } else {
          summary.first_submit = std::min(summary.first_submit, part.first_submit);
          summary.last_submit = std::max(summary.last_submit, part.last_submit);
        }
        summary.usable_records += part.usable_records;
        for (const double work : next.work) summary.gross_work += work;
        summary.max_processors = std::max(summary.max_processors, part.max_processors);
      }
      for (std::string& comment : next.comments) comments.push_back(std::move(comment));
      lock.lock();
      next.state = State::kFree;
      ++folded_;
    } else if (folded_ == read_ && !more_) {
      break;
    } else if (more_ && read_ - folded_ < kWindow) {
      Chunk& fresh = slot(read_);
      lock.unlock();
      const bool got = read_chunk(fresh.text);
      fresh.body = 0;
      lock.lock();
      if (got) {
        fresh.state = State::kRead;
        ++read_;
      }
      more_ = !exhausted_ || !carry_.empty();
      chunk_read_.notify_one();
    } else if (Chunk* chunk = unparsed_chunk()) {
      chunk->state = State::kParsing;
      lock.unlock();
      parse(*chunk);
      lock.lock();
      chunk->state = State::kParsed;
    } else {
      // The next chunk to fold is the helper's, still being parsed.
      chunk_parsed_.wait(lock, [&] { return next.state == State::kParsed; });
    }
  }
  lock.unlock();
  stop();
  SwfScan scan;
  scan.header = std::move(header_);
  for (std::string& comment : comments) scan.header.comments.push_back(std::move(comment));
  scan.summary = summary;
  return scan;
}

}  // namespace

SwfScan scan_swf_file(const std::string& path) {
  if (std::optional<SwfScan> scan = ChunkedScan(path).run()) return std::move(*scan);
  return serial_scan(path);
}

}  // namespace mcsim
