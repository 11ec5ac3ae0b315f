// Minimal leveled logger.
//
// Logging is off by default above `warn`; experiment drivers raise the level
// via --verbose. All output goes to stderr so it never mixes with the
// table/series output the bench harnesses print on stdout.
#pragma once

#include <sstream>
#include <string>

namespace mcsim {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}

/// Stream-style log statement: MCSIM_LOG(kInfo) << "ran " << n << " jobs";
class LogStatement {
 public:
  explicit LogStatement(LogLevel level) : level_(level) {}
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;
  ~LogStatement() { detail::log_emit(level_, stream_.str()); }

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace mcsim

#define MCSIM_LOG(level)                                      \
  if (static_cast<int>(::mcsim::LogLevel::level) <            \
      static_cast<int>(::mcsim::log_level())) {               \
  } else                                                      \
    ::mcsim::LogStatement(::mcsim::LogLevel::level)
