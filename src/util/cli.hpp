// Tiny command-line argument parser used by examples and bench harnesses.
//
// Supports:  --key=value   --key value   --flag   positional args.
// Unknown options raise; every option must be declared before parse().
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcsim {

/// The exit-code convention every mcsim verb follows (pinned by
/// tests/util_cli_test.cpp and the serve-smoke CI job):
///   0  success
///   1  runtime failure  (unreadable trace, diverged verify, server error)
///   2  usage error      (unknown flag, malformed option value, missing
///                        positional, unknown command)
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;

/// Thrown for errors in how the command line itself was written — unknown
/// options, flags given values, non-numeric numbers. Derives from
/// std::invalid_argument so existing catch sites keep working; the CLI main
/// maps it to kExitUsage where every other exception maps to kExitRuntime.
class CliUsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The exit code the convention assigns to an escaped exception.
int cli_exit_code(const std::exception& error);

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Declare an option with a default value (shown in --help).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declare a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false if --help was requested (help printed to stdout).
  /// Throws std::invalid_argument on unknown or malformed options.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  /// get_uint with an upper bound: a larger value is a usage error naming
  /// the option, never a value that wraps where it is stored.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name, std::uint64_t max) const {
    const std::uint64_t value = get_uint(name);
    if (value > max) {
      throw CliUsageError("mcsim: option --" + name + " must be at most " +
                          std::to_string(max) + ": " + get(name));
    }
    return value;
  }
  /// get_uint bounded to 32 bits (4294967295).
  [[nodiscard]] std::uint32_t get_u32(const std::string& name) const {
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    return static_cast<std::uint32_t>(get_uint(name, kMax));
  }
  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Render the --help text.
  [[nodiscard]] std::string help_text() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string description_;
  std::string program_name_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mcsim
