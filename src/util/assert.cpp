#include "util/assert.hpp"

#include <stdexcept>

namespace mcsim::detail {

void throw_invalid_argument(const char* message) {
  throw std::invalid_argument(std::string("mcsim: ") + message);
}

void throw_invalid_argument(const std::string& message) {
  throw std::invalid_argument("mcsim: " + message);
}

}  // namespace mcsim::detail
