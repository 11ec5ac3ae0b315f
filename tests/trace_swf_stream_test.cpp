// SwfStreamReader: the incremental parser behind read_swf and the
// streaming replay path — header-directive dialect, per-record delivery,
// the `file:line:` diagnostics contract, number parsing bit-identical to
// std::strtod, integer range checks, and block-buffer boundaries.
#include "trace/swf_stream.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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
      "; Command: mcsim point --policy=GS\n"
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

}  // namespace
}  // namespace mcsim
