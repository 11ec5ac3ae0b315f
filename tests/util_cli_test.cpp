#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mcsim {
namespace {

CliParser make_parser() {
  CliParser parser("test program");
  parser.add_option("jobs", "1000", "number of jobs");
  parser.add_option("policy", "GS", "policy name");
  parser.add_option("rho", "0.5", "utilization");
  parser.add_flag("verbose", "log more");
  return parser;
}

TEST(CliParser, DefaultsApplyWhenUnset) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("policy"), "GS");
  EXPECT_EQ(parser.get_int("jobs"), 1000);
  EXPECT_DOUBLE_EQ(parser.get_double("rho"), 0.5);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(CliParser, EqualsSyntax) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=42", "--policy=LS"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("jobs"), 42);
  EXPECT_EQ(parser.get("policy"), "LS");
}

TEST(CliParser, SpaceSyntax) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs", "7", "--rho", "0.85"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("jobs"), 7);
  EXPECT_DOUBLE_EQ(parser.get_double("rho"), 0.85);
}

TEST(CliParser, FlagsAndPositionals) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose", "input.swf", "other"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_TRUE(parser.get_flag("verbose"));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.swf");
}

TEST(CliParser, UnknownOptionThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

// -- the exit-code convention (0 ok, 1 runtime, 2 usage) --------------------
// Pinned here and re-checked end-to-end by the serve-smoke CI job: argv
// mistakes exit 2, everything else that escapes exits 1.

TEST(CliExitCode, UsageErrorsMapToTwo) {
  EXPECT_EQ(cli_exit_code(CliUsageError("mcsim: unknown option --nope")),
            kExitUsage);
}

TEST(CliExitCode, OtherExceptionsMapToOne) {
  EXPECT_EQ(cli_exit_code(std::runtime_error("trace unreadable")), kExitRuntime);
  // Plain invalid_argument is a *runtime* failure (e.g. a malformed data
  // file); only the CliUsageError subclass means "the command line is
  // wrong".
  EXPECT_EQ(cli_exit_code(std::invalid_argument("bad file")), kExitRuntime);
}

TEST(CliExitCode, ParserErrorsAreUsageErrors) {
  auto parser = make_parser();
  const char* unknown[] = {"prog", "--nope=1"};
  EXPECT_THROW(parser.parse(2, unknown), CliUsageError);
  const char* missing[] = {"prog", "--jobs"};
  EXPECT_THROW(parser.parse(2, missing), CliUsageError);
  const char* flagged[] = {"prog", "--verbose=1"};
  EXPECT_THROW(parser.parse(2, flagged), CliUsageError);
}

TEST(CliParser, MissingValueThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

TEST(CliParser, FlagWithValueThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose=1"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

TEST(CliParser, NonNumericValueThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=abc"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_THROW((void)parser.get_int("jobs"), std::invalid_argument);
}

TEST(CliParser, NegativeUintThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=-3"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_THROW((void)parser.get_uint("jobs"), std::invalid_argument);
}

TEST(CliParser, U32RejectsWiderValuesNamingTheOption) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=4294967295", "--rho=4294967312"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_u32("jobs"), 4294967295u);
  try {
    (void)parser.get_u32("rho");
    FAIL() << "--rho=4294967312 was wrapped instead of rejected";
  } catch (const CliUsageError& error) {
    EXPECT_NE(std::string(error.what()).find("--rho"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("4294967312"), std::string::npos)
        << error.what();
  }
}

TEST(CliParser, BoundedUintAcceptsTheBoundAndRejectsAbove) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=2147483"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EQ(parser.get_uint("jobs", 2147483), 2147483u);
  EXPECT_THROW((void)parser.get_uint("jobs", 2147482), CliUsageError);
}

TEST(CliParser, HelpReturnsFalse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parser.parse(2, argv));
  const std::string help = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--policy"), std::string::npos);
}

TEST(CliParser, DuplicateDeclarationThrows) {
  CliParser parser("p");
  parser.add_option("x", "1", "");
  EXPECT_THROW(parser.add_option("x", "2", ""), std::invalid_argument);
  EXPECT_THROW(parser.add_flag("x", ""), std::invalid_argument);
}

TEST(CliParser, UndeclaredGetThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW(parser.get("missing"), std::invalid_argument);
  EXPECT_THROW((void)parser.get_flag("missing"), std::invalid_argument);
}

TEST(CliParser, LastValueWins) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--jobs=1", "--jobs=2"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("jobs"), 2);
}

}  // namespace
}  // namespace mcsim
