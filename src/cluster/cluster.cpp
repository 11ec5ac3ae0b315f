#include "cluster/cluster.hpp"

#include "util/assert.hpp"

namespace mcsim {

Cluster::Cluster(ClusterId id, std::uint32_t num_processors, double speed)
    : id_(id), capacity_(num_processors), speed_(speed) {
  MCSIM_REQUIRE(num_processors > 0, "cluster must have processors");
  MCSIM_REQUIRE(speed > 0.0, "cluster speed must be positive");
}

}  // namespace mcsim
