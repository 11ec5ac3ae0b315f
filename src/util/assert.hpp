// Assertion and precondition macros for mcsim.
//
// MCSIM_ASSERT(cond)        -- internal invariant; aborts in debug, no-op in NDEBUG.
// MCSIM_REQUIRE(cond, msg)  -- public API precondition; always checked, throws
//                              std::invalid_argument("mcsim: " + msg) so callers
//                              can recover.
#pragma once

#include <cassert>
#include <string>

namespace mcsim::detail {

/// Throw std::invalid_argument("mcsim: " + message). Out of line, so a
/// MCSIM_REQUIRE in a small inlined function costs each caller one call
/// on its cold path instead of a string build and a throw of its own.
[[noreturn, gnu::cold]] void throw_invalid_argument(const char* message);
[[noreturn, gnu::cold]] void throw_invalid_argument(const std::string& message);

}  // namespace mcsim::detail

#define MCSIM_ASSERT(cond) assert(cond)

#define MCSIM_REQUIRE(cond, msg)                           \
  do {                                                     \
    if (!(cond)) {                                         \
      ::mcsim::detail::throw_invalid_argument(msg);        \
    }                                                      \
  } while (0)
