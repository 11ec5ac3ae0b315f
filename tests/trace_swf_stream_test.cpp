// SwfStreamReader: the incremental parser behind read_swf and the
// streaming replay path — header-directive dialect, per-record delivery,
// the `file:line:` diagnostics contract, number parsing bit-identical to
// std::strtod, integer range checks, and block-buffer boundaries. Then
// SwfFileStream, which runs that parser ahead on a helper thread: the same
// records and the same errors as the serial reader, at every batch edge.
#include "trace/swf_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace mcsim {
namespace {

std::string record_line(std::uint64_t id, double submit, double run,
                        std::uint32_t procs) {
  std::ostringstream line;
  line << id << ' ' << submit << " 0 " << run << ' ' << procs << " -1 -1 "
       << procs << " -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  return line.str();
}

TEST(SwfStream, DeliversRecordsOneAtATime) {
  std::istringstream in("; a log\n" + record_line(1, 0.0, 60.0, 4) +
                        record_line(2, 30.0, 90.0, 8));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 1u);
  EXPECT_EQ(reader.records_read(), 1u);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 2u);
  EXPECT_EQ(rec.processors, 8u);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_FALSE(reader.next(rec));  // stays exhausted
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(SwfStream, ParsesHeaderDirectives) {
  std::istringstream in(
      "; Computer: IBM SP2\n"
      "; MaxJobs: 73496\n"
      ";\tMaxRecords: 73496\n"
      "; maxnodes: 128\n"  // keys are case-insensitive
      "; MaxRuntime: 64800\n"
      "; UnixStartTime: 893683200\n"
      "; Note: MaxNodes counts nodes, not processors\n" +
      record_line(1, 0.0, 60.0, 4));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  const SwfHeaderInfo& header = reader.header();
  EXPECT_EQ(header.max_jobs, 73496);
  EXPECT_EQ(header.max_records, 73496);
  EXPECT_EQ(header.max_nodes, 128);
  EXPECT_EQ(header.max_procs, -1);
  EXPECT_EQ(header.max_runtime, 64800);
  EXPECT_EQ(header.unix_start_time, 893683200);
  // Every header line is kept verbatim, directives included.
  EXPECT_EQ(header.comments.size(), 7u);
  EXPECT_EQ(header.comments.front(), "Computer: IBM SP2");
}

TEST(SwfStream, DeclaredProcessorsPrefersMaxProcs) {
  SwfHeaderInfo header;
  EXPECT_EQ(header.declared_processors(), -1);
  header.max_nodes = 72;
  EXPECT_EQ(header.declared_processors(), 72);
  header.max_procs = 144;  // two processors per node
  EXPECT_EQ(header.declared_processors(), 144);
}

TEST(SwfStream, FreeTextColonCommentsAreNotDirectives) {
  // mcsim's own exports carry "Version: <git describe>" and "Command: ..."
  // lines; neither is a numeric archive directive and neither may error.
  std::istringstream in(
      "; Version: v1.2.3-4-gdeadbee-dirty\n"
      "; Command: mcsim run --policy=GS\n"
      "; Conversion: ask the archive maintainer\n" +
      record_line(1, 0.0, 60.0, 4));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(reader.header().comments.size(), 3u);
  EXPECT_EQ(reader.header().declared_processors(), -1);
}

TEST(SwfStream, MalformedDirectiveErrorsWithFileAndLine) {
  std::istringstream in("; ok\n; MaxProcs: lots\n" + record_line(1, 0, 60, 4));
  SwfStreamReader reader(in, "bad.swf");
  TraceRecord rec;
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bad.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxProcs"), std::string::npos) << what;
    EXPECT_NE(what.find("'lots'"), std::string::npos) << what;
  }
}

TEST(SwfStream, NegativeDirectiveValueErrors) {
  std::istringstream in("; MaxNodes: -5\n" + record_line(1, 0, 60, 4));
  SwfStreamReader reader(in, "neg.swf");
  TraceRecord rec;
  EXPECT_THROW(reader.next(rec), std::invalid_argument);
}

TEST(SwfStream, RecordWiderThanDeclaredMachineErrors) {
  std::istringstream in("; MaxNodes: 64\n" + record_line(1, 0.0, 60.0, 65));
  SwfStreamReader reader(in, "wide.swf");
  TraceRecord rec;
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("wide.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("65 processors"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxNodes: 64"), std::string::npos) << what;
  }
}

TEST(SwfStream, RecordAtDeclaredWidthIsAccepted) {
  std::istringstream in("; MaxProcs: 64\n" + record_line(1, 0.0, 60.0, 64));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.processors, 64u);
}

TEST(SwfStream, TruncatedTrailingFieldsReadAsMissing) {
  // Archive logs drop unused trailing columns; field 5 present suffices.
  std::istringstream in("3 120 5 600 16 -1 -1 16 -1 -1 1 9\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 3u);
  EXPECT_EQ(rec.processors, 16u);
  EXPECT_EQ(rec.user_id, 9u);
}

TEST(SwfStream, TruncatedRecordWithoutProcessorsErrorsWithLine) {
  std::istringstream in(record_line(1, 0.0, 60.0, 4) + "9999 123.0\n");
  SwfStreamReader reader(in, "trunc.swf");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("trunc.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("no processor count"), std::string::npos) << what;
  }
}

TEST(SwfStream, HeaderOnlyLogYieldsNoRecordsButAHeader) {
  std::istringstream in("; MaxProcs: 430\n; MaxJobs: 0\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.records_read(), 0u);
  EXPECT_EQ(reader.header().max_procs, 430);
}

TEST(SwfStream, ScanSummarisesWithoutMaterialising) {
  const std::string path = ::testing::TempDir() + "/mcsim_scan_test.swf";
  {
    std::ofstream out(path);
    out << "; MaxNodes: 128\n";
    out << record_line(1, 0.0, 50.0, 4);     // 200 proc-seconds
    out << record_line(2, 100.0, 25.0, 8);   // 200 proc-seconds
    out << record_line(3, 40.0, 0.0, 16);    // zero run: counted, unusable
  }
  const SwfScan scan = scan_swf_file(path);
  EXPECT_EQ(scan.header.max_nodes, 128);
  EXPECT_EQ(scan.summary.total_records, 3u);
  EXPECT_EQ(scan.summary.usable_records, 2u);
  EXPECT_DOUBLE_EQ(scan.summary.first_submit, 0.0);
  EXPECT_DOUBLE_EQ(scan.summary.last_submit, 100.0);
  EXPECT_DOUBLE_EQ(scan.summary.gross_work, 400.0);
  EXPECT_EQ(scan.summary.max_processors, 8u);
}

/// The error next() throws on `text`, or "" when it parses.
std::string first_error(const std::string& text, const std::string& source) {
  std::istringstream in(text);
  SwfStreamReader reader(in, source);
  TraceRecord rec;
  try {
    while (reader.next(rec)) {
    }
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(SwfStream, NumbersMatchFullTokenStrtodBitForBit) {
  // Each token sits in field 2 (submit time), which is stored unconverted.
  const std::vector<std::string> tokens = {
      "0", "-0", "-1", "7", "123456789012345", "-999999999999999",
      "1234567890123456", "1234567890123456789", "-9223372036854775809",
      "1e3", ".5", "5.", "-.5", "0.1", "1303.0302003170193",
      "4.9e-324", "2.2250738585072011e-308", "1e-310", "1.7976931348623157e308",
      "+5", "0x10", "0X1p-3", "1e400", "-1e400", "1e-400", "inf", "-inf",
      "Infinity", "nan", "-nan", "nan(123)", "007", "-007",
      "-", "+", ".", "1e", "5-", "1,5", "--1", "1.2.3", "e5", "abc", "5x"};
  for (const std::string& token : tokens) {
    char* parsed_end = nullptr;
    const double expected = std::strtod(token.c_str(), &parsed_end);
    const bool accepted = parsed_end == token.c_str() + token.size();
    std::istringstream in("1 " + token + " 0 60 4 -1 -1 4 -1 -1 1 0\n");
    SwfStreamReader reader(in, "num.swf");
    TraceRecord rec;
    if (accepted) {
      ASSERT_TRUE(reader.next(rec)) << token;
      EXPECT_EQ(std::memcmp(&rec.submit_time, &expected, sizeof expected), 0)
          << token << " parsed as " << rec.submit_time << ", strtod gives " << expected;
    } else {
      try {
        reader.next(rec);
        ADD_FAILURE() << "accepted '" << token << "', which strtod rejects";
      } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("num.swf:1: field 2 is not a number: '" + token + "'"),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(SwfStream, IntegerFieldsOutOfRangeErrorWithFileAndLine) {
  struct Case {
    std::string line;
    std::string field;
  };
  const std::vector<Case> cases = {
      {"1 0 0 10 1e20 -1 -1 1e20 -1 -1 1 0", "field 5 (processors)"},
      {"1 0 0 10 -1 -1 -1 1e20 -1 -1 1 0", "field 8 (processors)"},
      {"1 0 0 10 4294967296 -1 -1 4 -1 -1 1 0", "field 5 (processors)"},
      {"1 0 0 10 nan -1 -1 4 -1 -1 1 0", "field 5 (processors)"},
      {"1 0 0 10 -1 -1 -1 nan -1 -1 1 0", "field 8 (processors)"},
      {"1 0 0 10 inf -1 -1 4 -1 -1 1 0", "field 5 (processors)"},
      {"1 0 0 10 -inf -1 -1 4 -1 -1 1 0", "field 5 (processors)"},
      {"1 0 0 10 -1 -1 -1 -inf -1 -1 1 0", "field 8 (processors)"},
      {"1 0 0 10 4 -1 -1 4 -1 -1 1 1e12", "field 12 (user id)"},
      {"1 0 0 10 4 -1 -1 4 -1 -1 1 nan", "field 12 (user id)"},
      {"1 0 0 10 4 -1 -1 4 -1 -1 1 -inf", "field 12 (user id)"},
      {"1 0 0 10 4 -1 -1 4 -1 -1 1e20 0", "field 11 (status)"},
      {"1 0 0 10 4 -1 -1 4 -1 -1 nan 0", "field 11 (status)"},
      {"1e20 0 0 10 4 -1 -1 4 -1 -1 1 0", "field 1 (job id)"},
      {"-1 0 0 10 4 -1 -1 4 -1 -1 1 0", "field 1 (job id)"},
      {"inf 0 0 10 4 -1 -1 4 -1 -1 1 0", "field 1 (job id)"},
  };
  for (const Case& c : cases) {
    const std::string what = first_error("; a log\n" + c.line + "\n", "range.swf");
    EXPECT_NE(what.find("range.swf:2: " + c.field + " is out of range"), std::string::npos)
        << c.line << " -> " << what;
  }
}

TEST(SwfStream, IntegerFieldsAtTheirLimitsAndUnknownsAreAccepted) {
  std::istringstream in(
      "18446744073709549568 0 0 10 4294967295 -1 -1 4 -1 -1 2147483647 4294967295\n"
      "2 0 0 10 -1 -1 -1 3.9 -1 -1 -1 -1\n"
      "3 0 0 10 4 -1 -1 4 -1 -1 5 -7\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 18446744073709549568u);
  EXPECT_EQ(rec.processors, 4294967295u);
  EXPECT_EQ(rec.user_id, 4294967295u);
  EXPECT_FALSE(rec.killed_by_limit);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.processors, 3u);  // requested count, truncated as before
  EXPECT_EQ(rec.user_id, 0u);     // -1: unknown user
  ASSERT_TRUE(reader.next(rec));
  EXPECT_TRUE(rec.killed_by_limit);
  EXPECT_EQ(rec.user_id, 0u);  // any negative user id reads as unknown
}

// -- block-buffer boundaries --------------------------------------------------

constexpr std::size_t kBlock = SwfStreamReader::kBlockBytes;

/// A comment line of exactly `bytes` bytes including its '\n'.
std::string filler_comment(std::size_t bytes) {
  return "; " + std::string(bytes - 3, 'f') + "\n";
}

TEST(SwfStream, RecordStraddlingARefillParses) {
  const std::string straddler = record_line(7, 12.5, 60.0, 4);
  for (std::size_t before = 1; before < straddler.size(); ++before) {
    // The first block ends `before` bytes into the record.
    std::istringstream in(filler_comment(kBlock - before) + straddler +
                          record_line(8, 13.0, 30.0, 2));
    SwfStreamReader reader(in, "<swf>");
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec)) << before;
    EXPECT_EQ(rec.job_id, 7u);
    EXPECT_EQ(rec.submit_time, 12.5);
    EXPECT_EQ(rec.processors, 4u);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.job_id, 8u);
    EXPECT_FALSE(reader.next(rec));
    EXPECT_EQ(reader.line_number(), 3u);
  }
}

TEST(SwfStream, CommentLongerThanTheBlockIsKeptVerbatim) {
  std::string comment = "Note: ";
  while (comment.size() < 3 * kBlock + 17) comment += "long archive note ";
  std::istringstream in("; " + comment + "\n; MaxProcs: 64\n" +
                        record_line(1, 0.0, 60.0, 64));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  ASSERT_EQ(reader.header().comments.size(), 2u);
  EXPECT_EQ(reader.header().comments[0], trim(comment));
  EXPECT_EQ(reader.header().max_procs, 64);
  EXPECT_EQ(rec.processors, 64u);
  EXPECT_EQ(reader.line_number(), 3u);
}

TEST(SwfStream, LastLineWithoutNewlineParses) {
  std::string last = record_line(2, 5.0, 10.0, 3);
  last.pop_back();  // drop the '\n'
  for (const std::string& prefix : {std::string(), filler_comment(kBlock - 4)}) {
    std::istringstream in(prefix + record_line(1, 0.0, 60.0, 4) + last);
    SwfStreamReader reader(in, "<swf>");
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.job_id, 2u);
    EXPECT_EQ(rec.processors, 3u);
    EXPECT_FALSE(reader.next(rec));
  }
}

TEST(SwfStream, CrlfSplitAcrossBlocksParses) {
  std::string crlf = record_line(5, 1.0, 2.0, 8);
  crlf.insert(crlf.size() - 1, "\r");
  // The record's '\r' is the last byte of the first block, its '\n' the
  // first byte of the second.
  std::istringstream in(filler_comment(kBlock - (crlf.size() - 1)) + crlf +
                        record_line(6, 3.0, 4.0, 2));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 5u);
  EXPECT_EQ(rec.processors, 8u);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 6u);
  EXPECT_FALSE(reader.next(rec));
}

TEST(SwfStream, MalformedRecordAfterRefillsNamesTheRightLine) {
  std::string text = "; MaxProcs: 64\n";
  std::uint64_t lines = 1;
  while (text.size() < 4 * kBlock) {
    text += record_line(lines, static_cast<double>(lines), 60.0, 4);
    ++lines;
  }
  text += "9999 123.0\n";
  const std::string what = first_error(text, "long.swf");
  EXPECT_NE(what.find("long.swf:" + std::to_string(lines + 1) + ": no processor count"),
            std::string::npos)
      << what;
}

TEST(SwfStream, FileStreamRejectsMissingFile) {
  EXPECT_THROW(SwfFileStream("/nonexistent/missing.swf"), std::invalid_argument);
}

// -- the parse-ahead file stream ----------------------------------------------

constexpr std::size_t kBatch = SwfFileStream::kBatchRecords;

/// Write `text` to `name` under gtest's TempDir; returns the path.
std::string write_log(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

/// A header, then `count` records with non-integer times and a comment line
/// every 500 records (comments and blanks consume line numbers, not records).
std::string generated_log(std::size_t count) {
  std::string text = "; MaxProcs: 128\n; generated\n\n";
  for (std::size_t i = 1; i <= count; ++i) {
    text += record_line(i, 0.1 * static_cast<double>(i), 3.7 + static_cast<double>(i % 13),
                        static_cast<std::uint32_t>(1 + i % 64));
    if (i % 500 == 0) text += "; checkpoint " + std::to_string(i) + "\n";
  }
  return text;
}

/// Every record a source yields, then the message it threw ("" if none).
struct Drained {
  std::vector<TraceRecord> records;
  std::string error;
};

template <typename Source>
Drained drain(Source& source) {
  Drained drained;
  TraceRecord rec;
  try {
    while (source.next(rec)) drained.records.push_back(rec);
  } catch (const std::invalid_argument& error) {
    drained.error = error.what();
  }
  return drained;
}

Drained drain_serial(const std::string& path) {
  std::ifstream in(path);
  SwfStreamReader reader(in, path);
  return drain(reader);
}

Drained drain_stream(const std::string& path) {
  SwfFileStream stream(path);
  return drain(stream);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The parse-ahead stream yields exactly what the serial reader does:
/// every record bit for bit, then the same error message (or none).
void expect_stream_matches_serial(const std::string& path) {
  const Drained serial = drain_serial(path);
  const Drained streamed = drain_stream(path);
  ASSERT_EQ(streamed.records.size(), serial.records.size()) << path;
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const TraceRecord& a = serial.records[i];
    const TraceRecord& b = streamed.records[i];
    ASSERT_TRUE(a.job_id == b.job_id && same_bits(a.submit_time, b.submit_time) &&
                same_bits(a.wait_time, b.wait_time) && same_bits(a.run_time, b.run_time) &&
                a.processors == b.processors && a.user_id == b.user_id &&
                a.killed_by_limit == b.killed_by_limit)
        << path << ": record " << i << " differs";
  }
  EXPECT_EQ(streamed.error, serial.error) << path;
}

TEST(SwfFileStream, MatchesTheSerialReaderOnEveryArchiveSample) {
  std::vector<std::string> logs;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(MCSIM_DATA_DIR) + "/archive_samples")) {
    if (entry.path().extension() == ".swf") logs.push_back(entry.path().string());
  }
  std::sort(logs.begin(), logs.end());
  ASSERT_GE(logs.size(), 4u);
  for (const std::string& log : logs) {
    expect_stream_matches_serial(log);
    EXPECT_TRUE(drain_stream(log).error.empty()) << log;
  }
}

TEST(SwfFileStream, MatchesTheSerialReaderAtEveryBatchEdge) {
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, kBatch - 1, kBatch, kBatch + 1, 3 * kBatch + 7}) {
    const std::string path = write_log("mcsim_prefetch_" + std::to_string(count) + ".swf",
                                       generated_log(count));
    expect_stream_matches_serial(path);
    EXPECT_EQ(drain_stream(path).records.size(), count);
  }
}

TEST(SwfFileStream, StaysExhaustedAfterTheLastRecord) {
  const std::string path = write_log("mcsim_prefetch_exhausted.swf", generated_log(kBatch));
  SwfFileStream stream(path);
  TraceRecord rec;
  std::size_t count = 0;
  while (stream.next(rec)) ++count;
  EXPECT_EQ(count, kBatch);
  EXPECT_FALSE(stream.next(rec));
}

TEST(SwfFileStream, MalformedLineYieldsEveryEarlierRecordThenTheSerialError) {
  const std::string bad = "9999 123.0";  // no processor count
  struct Case {
    std::string name;
    std::size_t good_before;  ///< records ahead of the bad line
    bool trailing_newline;
  };
  const std::vector<Case> cases = {
      {"first_record", 0, true},
      {"last_of_a_batch", kBatch - 1, true},
      {"first_of_a_batch", kBatch, true},
      {"first_of_the_third_batch", 2 * kBatch, true},
      {"last_line_without_newline", kBatch + 5, false},
  };
  for (const Case& c : cases) {
    std::string text = generated_log(c.good_before) + bad;
    if (c.trailing_newline) text += "\n" + generated_log(kBatch);
    const std::string path = write_log("mcsim_prefetch_bad_" + c.name + ".swf", text);
    expect_stream_matches_serial(path);
    const Drained streamed = drain_stream(path);
    EXPECT_EQ(streamed.records.size(), c.good_before) << c.name;
    EXPECT_NE(streamed.error.find(path + ":"), std::string::npos) << streamed.error;
    EXPECT_NE(streamed.error.find("no processor count"), std::string::npos) << streamed.error;
  }
}

TEST(SwfFileStream, MalformedHeaderDirectiveThrowsFromTheFirstNext) {
  const std::string path =
      write_log("mcsim_prefetch_bad_header.swf", "; MaxProcs: lots\n" + generated_log(10));
  expect_stream_matches_serial(path);
  EXPECT_NE(drain_stream(path).error.find(path + ":1:"), std::string::npos);
}

TEST(SwfFileStream, StoppingEarlyNeverSeesALaterErrorAndJoinsTheParser) {
  std::string text = generated_log(12 * kBatch);
  text += "9999 123.0\n";
  const std::string path = write_log("mcsim_prefetch_stop_early.swf", text);
  {
    SwfFileStream untouched(path);  // destroyed before its first next()
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    SwfFileStream stream(path);
    TraceRecord rec;
    ASSERT_TRUE(stream.next(rec));
    EXPECT_EQ(rec.job_id, 1u);
  }  // each destructor returns without throwing: the bad line is never reached
  SwfFileStream stream(path);
  TraceRecord rec;
  for (std::size_t i = 0; i < 5 * kBatch + 3; ++i) ASSERT_TRUE(stream.next(rec));
  EXPECT_EQ(rec.job_id, 5 * kBatch + 3);
}

// -- the chunked pre-scan ------------------------------------------------------

constexpr std::size_t kChunk = kSwfScanChunkBytes;

/// What scan_swf_file must reproduce: every record of one serial
/// SwfStreamReader pass folded into TraceStreamSummary::add.
SwfScan serial_fold(const std::string& path) {
  std::ifstream in(path);
  SwfStreamReader reader(in, path);
  SwfScan scan;
  TraceRecord rec;
  while (reader.next(rec)) scan.summary.add(rec);
  scan.header = reader.header();
  return scan;
}

/// A scan's result, or the message it threw.
struct ScanOutcome {
  SwfScan scan;
  std::string error;
};

ScanOutcome scan_outcome(SwfScan (*scan)(const std::string&), const std::string& path) {
  ScanOutcome outcome;
  try {
    outcome.scan = scan(path);
  } catch (const std::invalid_argument& error) {
    outcome.error = error.what();
  }
  return outcome;
}

/// scan_swf_file equals the serial fold field by field (doubles by bit
/// pattern, comments in order), or throws the same message. Returns the
/// chunked outcome for further checks.
ScanOutcome expect_scan_matches_serial(const std::string& path) {
  const ScanOutcome serial = scan_outcome(serial_fold, path);
  ScanOutcome chunked = scan_outcome(scan_swf_file, path);
  EXPECT_EQ(chunked.error, serial.error) << path;
  const SwfHeaderInfo& a = serial.scan.header;
  const SwfHeaderInfo& b = chunked.scan.header;
  EXPECT_EQ(b.max_jobs, a.max_jobs) << path;
  EXPECT_EQ(b.max_records, a.max_records) << path;
  EXPECT_EQ(b.max_nodes, a.max_nodes) << path;
  EXPECT_EQ(b.max_procs, a.max_procs) << path;
  EXPECT_EQ(b.max_runtime, a.max_runtime) << path;
  EXPECT_EQ(b.max_queues, a.max_queues) << path;
  EXPECT_EQ(b.max_partitions, a.max_partitions) << path;
  EXPECT_EQ(b.unix_start_time, a.unix_start_time) << path;
  EXPECT_EQ(b.comments, a.comments) << path;
  const TraceStreamSummary& x = serial.scan.summary;
  const TraceStreamSummary& y = chunked.scan.summary;
  EXPECT_EQ(y.total_records, x.total_records) << path;
  EXPECT_EQ(y.usable_records, x.usable_records) << path;
  EXPECT_TRUE(same_bits(y.first_submit, x.first_submit)) << path;
  EXPECT_TRUE(same_bits(y.last_submit, x.last_submit)) << path;
  EXPECT_TRUE(same_bits(y.gross_work, x.gross_work))
      << path << ": " << format_double_roundtrip(y.gross_work) << " vs "
      << format_double_roundtrip(x.gross_work);
  EXPECT_EQ(y.max_processors, x.max_processors) << path;
  return chunked;
}

/// A header, then records until the log holds at least `bytes` bytes: the
/// times are fractional (so gross_work depends on the order of its sum),
/// every 97th record has a zero run time (counted, not usable) and every
/// 1000th line is a plain comment.
std::string chunked_log(std::size_t bytes) {
  std::string text = "; MaxProcs: 128\n; Note: chunked scan test\n\n";
  for (std::uint64_t i = 1; text.size() < bytes; ++i) {
    const double run = i % 97 == 0 ? 0.0 : 0.37 + static_cast<double>(i % 1013) / 7.0;
    text += record_line(i, 0.3 * static_cast<double>(i), run,
                        static_cast<std::uint32_t>(1 + (i * 7) % 128));
    if (i % 1000 == 0) text += "; checkpoint " + std::to_string(i) + "\n";
  }
  return text;
}

/// The number of the line that starts at byte `offset` of `text`.
std::size_t line_at(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(std::count(text.begin(), text.begin() +
                                                     static_cast<std::ptrdiff_t>(offset), '\n'));
}

TEST(SwfScan, MatchesTheSerialFoldOnEveryArchiveSample) {
  std::vector<std::string> logs;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(MCSIM_DATA_DIR) + "/archive_samples")) {
    if (entry.path().extension() == ".swf") logs.push_back(entry.path().string());
  }
  std::sort(logs.begin(), logs.end());
  ASSERT_GE(logs.size(), 4u);
  for (const std::string& log : logs) {
    const ScanOutcome chunked = expect_scan_matches_serial(log);
    EXPECT_TRUE(chunked.error.empty()) << chunked.error;
    EXPECT_GT(chunked.scan.summary.usable_records, 0u) << log;
  }
}

TEST(SwfScan, MatchesTheSerialFoldOverManyChunks) {
  const std::string text = chunked_log(3 * kChunk + kChunk / 2);
  const std::string path = write_log("mcsim_scan_chunks.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_TRUE(chunked.error.empty()) << chunked.error;
  EXPECT_EQ(chunked.scan.header.max_procs, 128);
  // The header, the blank line's neighbours and every checkpoint comment.
  EXPECT_GT(chunked.scan.header.comments.size(), 10u);
  EXPECT_LT(chunked.scan.summary.usable_records, chunked.scan.summary.total_records);
}

TEST(SwfScan, BreaksSignedZeroTiesLikeTheSerialFold) {
  // The first submit time is -0 and every later one +0, so first and last
  // submit are ties that min and max resolve by argument order: the serial
  // fold keeps the first one seen, -0.0. A fold that took the later
  // chunk's +0.0 would differ in its bits only.
  std::string text = "; MaxProcs: 64\n";
  for (std::uint64_t i = 1; text.size() < kChunk + kChunk / 2; ++i) {
    text += std::to_string(i) + (i == 1 ? " -0" : " 0") + " 0 17.25 4 -1 -1 4 -1 -1 1 0\n";
  }
  const std::string path = write_log("mcsim_scan_signed_zero.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_TRUE(std::signbit(chunked.scan.summary.first_submit));
  EXPECT_TRUE(std::signbit(chunked.scan.summary.last_submit));
}

TEST(SwfScan, MalformedLineInALaterChunkGivesTheSerialMessage) {
  std::string text = chunked_log(kChunk + kChunk / 2);
  const std::size_t bad_line = line_at(text, text.size());
  text += "9999 123.0\n" + chunked_log(kChunk / 4);
  const std::string path = write_log("mcsim_scan_bad_line.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_NE(chunked.error.find(path + ":" + std::to_string(bad_line) + ": no processor count"),
            std::string::npos)
      << chunked.error;
}

TEST(SwfScan, JobWiderThanMaxProcsInALaterChunkGivesTheSerialMessage) {
  std::string text = chunked_log(kChunk + 123);
  const std::size_t wide_line = line_at(text, text.size());
  text += record_line(424242, 1.0, 60.0, 129) + chunked_log(kChunk / 4);
  const std::string path = write_log("mcsim_scan_wide_job.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_NE(chunked.error.find(path + ":" + std::to_string(wide_line) +
                               ": job requests 129 processors but the header declares "
                               "MaxProcs: 128"),
            std::string::npos)
      << chunked.error;
}

TEST(SwfScan, MidFileDirectiveGivesTheSerialResult) {
  // A directive after the first record takes effect where it stands: here
  // it only sets MaxJobs ...
  std::string text = chunked_log(kChunk + kChunk / 3) + "; MaxJobs: 5\n" + chunked_log(kChunk / 4);
  std::string path = write_log("mcsim_scan_directive.swf", text);
  ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_TRUE(chunked.error.empty()) << chunked.error;
  EXPECT_EQ(chunked.scan.header.max_jobs, 5);
  // ... here it narrows the machine, so a later 16-processor job is too wide.
  text = chunked_log(kChunk + kChunk / 3) + "; MaxProcs: 8\n" + record_line(1, 2.0, 60.0, 16);
  path = write_log("mcsim_scan_narrowing_directive.swf", text);
  chunked = expect_scan_matches_serial(path);
  EXPECT_NE(chunked.error.find("the header declares MaxProcs: 8"), std::string::npos)
      << chunked.error;
}

TEST(SwfScan, MalformedLeadingDirectiveGivesTheSerialMessage) {
  const std::string path = write_log("mcsim_scan_bad_header.swf",
                                     "; Note: x\n; MaxProcs: lots\n" + chunked_log(kChunk + 1));
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_NE(chunked.error.find(path + ":2: header directive 'MaxProcs'"), std::string::npos)
      << chunked.error;
}

TEST(SwfScan, CrlfLogMatchesTheSerialFold) {
  std::string text;
  for (const char c : chunked_log(kChunk + 77)) {
    if (c == '\n') text += '\r';
    text += c;
  }
  const std::string path = write_log("mcsim_scan_crlf.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_TRUE(chunked.error.empty()) << chunked.error;
  EXPECT_EQ(chunked.scan.header.comments.front(), "MaxProcs: 128");
}

TEST(SwfScan, LastLineWithoutNewlineMatchesTheSerialFold) {
  for (const std::size_t bytes : {std::size_t{100}, kChunk + 5}) {
    std::string text = chunked_log(bytes);
    text.pop_back();  // drop the final '\n'
    const std::string path =
        write_log("mcsim_scan_no_newline_" + std::to_string(bytes) + ".swf", text);
    const ScanOutcome chunked = expect_scan_matches_serial(path);
    EXPECT_TRUE(chunked.error.empty()) << chunked.error;
  }
}

TEST(SwfScan, LinesLongerThanABlockAcrossAChunkEdge) {
  // A comment and a record, each longer than the reader's 64 KiB block,
  // both straddling the first chunk edge: a chunk holds whole lines.
  std::string text = chunked_log(kChunk - 1000);
  text += "; " + std::string(kBlock + 4321, 'n') + "\n";
  text += std::string(kBlock + 99, '0') + "7 5.5 0 60 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  text += chunked_log(kChunk / 4);
  const std::string path = write_log("mcsim_scan_long_lines.swf", text);
  const ScanOutcome chunked = expect_scan_matches_serial(path);
  EXPECT_TRUE(chunked.error.empty()) << chunked.error;
}

TEST(SwfScan, EmptyAndHeaderOnlyLogs) {
  const std::string empty = write_log("mcsim_scan_empty.swf", "");
  ScanOutcome chunked = expect_scan_matches_serial(empty);
  EXPECT_EQ(chunked.scan.summary.total_records, 0u);
  EXPECT_TRUE(chunked.scan.header.comments.empty());
  const std::string header_only =
      write_log("mcsim_scan_header_only.swf", "; MaxProcs: 430\n\n; MaxJobs: 0\n");
  chunked = expect_scan_matches_serial(header_only);
  EXPECT_EQ(chunked.scan.summary.total_records, 0u);
  EXPECT_EQ(chunked.scan.header.max_procs, 430);
  EXPECT_EQ(chunked.scan.header.comments.size(), 2u);
}

}  // namespace
}  // namespace mcsim
