#include "util/logging.hpp"

#include <gtest/gtest.h>

namespace mcsim {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { set_log_level(LogLevel::kWarn); }  // restore default
};

TEST_F(LoggingTest, LevelRoundTrips) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST_F(LoggingTest, SuppressedMessagesEmitNothing) {
  set_log_level(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  MCSIM_LOG(kDebug) << "invisible";
  MCSIM_LOG(kInfo) << "also invisible";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LoggingTest, EnabledMessagesReachStderr) {
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  MCSIM_LOG(kInfo) << "ran " << 42 << " jobs";
  const std::string text = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(text.find("ran 42 jobs"), std::string::npos);
  EXPECT_NE(text.find("INFO"), std::string::npos);
}

TEST_F(LoggingTest, ErrorAlwaysVisibleBelowOff) {
  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  MCSIM_LOG(kError) << "boom";
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("boom"), std::string::npos);
}

TEST_F(LoggingTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  ::testing::internal::CaptureStderr();
  MCSIM_LOG(kError) << "never";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LoggingTest, StreamSideEffectsSkippedWhenSuppressed) {
  // The MCSIM_LOG macro must not evaluate its stream expression when the
  // level is filtered out (it is an if-else, not a function call).
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto touch = [&] {
    ++evaluations;
    return "x";
  };
  MCSIM_LOG(kDebug) << touch();
  EXPECT_EQ(evaluations, 0);
  MCSIM_LOG(kError) << touch();
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace mcsim
