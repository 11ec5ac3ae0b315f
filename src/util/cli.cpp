#include "util/cli.hpp"

#include <cstdio>
#include <sstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

// Argv-derived errors throw CliUsageError (exit 2); declaration-time misuse
// (duplicate/undeclared options) stays MCSIM_REQUIRE — that is a programming
// error in the tool, not in what the user typed.
#define MCSIM_USAGE_REQUIRE(cond, msg)             \
  do {                                             \
    if (!(cond)) {                                 \
      throw CliUsageError(std::string("mcsim: ") + (msg)); \
    }                                              \
  } while (0)

int cli_exit_code(const std::exception& error) {
  return dynamic_cast<const CliUsageError*>(&error) != nullptr ? kExitUsage
                                                               : kExitRuntime;
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  MCSIM_REQUIRE(!options_.count(name), "duplicate option --" + name);
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  MCSIM_REQUIRE(!options_.count(name), "duplicate flag --" + name);
  options_[name] = Option{"", help, /*is_flag=*/true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    if (const size_t eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    } else {
      name = body;
    }
    auto it = options_.find(name);
    MCSIM_USAGE_REQUIRE(it != options_.end(), "unknown option --" + name);
    if (it->second.is_flag) {
      MCSIM_USAGE_REQUIRE(!has_value, "flag --" + name + " takes no value");
      values_[name] = '1';
      continue;
    }
    if (!has_value) {
      MCSIM_USAGE_REQUIRE(i + 1 < argc, "option --" + name + " needs a value");
      value = argv[++i];
    }
    values_[name] = std::move(value);
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto opt = options_.find(name);
  MCSIM_REQUIRE(opt != options_.end(), "option --" + name + " was never declared");
  auto it = values_.find(name);
  return it != values_.end() ? it->second : opt->second.default_value;
}

double CliParser::get_double(const std::string& name) const {
  const std::string text = get(name);
  size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  MCSIM_USAGE_REQUIRE(consumed == text.size(),
                      "option --" + name + " is not a number: " + text);
  return value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string text = get(name);
  size_t consumed = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  MCSIM_USAGE_REQUIRE(consumed == text.size(),
                      "option --" + name + " is not an integer: " + text);
  return value;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::int64_t value = get_int(name);
  MCSIM_USAGE_REQUIRE(value >= 0, "option --" + name + " must be non-negative");
  return static_cast<std::uint64_t>(value);
}

bool CliParser::get_flag(const std::string& name) const {
  auto opt = options_.find(name);
  MCSIM_REQUIRE(opt != options_.end() && opt->second.is_flag,
                "flag --" + name + " was never declared");
  return values_.count(name) > 0;
}

std::string CliParser::help_text() const {
  std::ostringstream out;
  out << description_ << "\n\nUsage: " << program_name_ << " [options]\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    out << "  --" << name;
    if (!opt.is_flag) out << "=<value>";
    if (!opt.default_value.empty()) out << "  (default: " << opt.default_value << ")";
    out << "\n      " << opt.help << "\n";
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

}  // namespace mcsim
