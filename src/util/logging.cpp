#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace mcsim {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO";
    case LogLevel::kWarn:  return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

namespace detail {
void log_emit(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "[mcsim %s] %s\n", level_name(level), message.c_str());
}
}  // namespace detail

}  // namespace mcsim
