#include "workload/job_splitter.hpp"

#include "util/assert.hpp"

namespace mcsim {

std::uint32_t component_count(std::uint32_t total_size, std::uint32_t component_limit,
                              std::uint32_t num_clusters) {
  MCSIM_REQUIRE(total_size > 0, "job size must be positive");
  MCSIM_REQUIRE(component_limit > 0, "component-size limit must be positive");
  MCSIM_REQUIRE(num_clusters > 0, "system must have clusters");
  const std::uint32_t wanted = (total_size + component_limit - 1) / component_limit;
  return wanted < num_clusters ? wanted : num_clusters;
}

void split_job_into(std::uint32_t total_size, std::uint32_t component_limit,
                    std::uint32_t num_clusters, std::vector<std::uint32_t>& out) {
  const std::uint32_t n = component_count(total_size, component_limit, num_clusters);
  const std::uint32_t base = total_size / n;
  const std::uint32_t remainder = total_size % n;
  out.clear();
  // Room for the widest split (one component per cluster) up front: a
  // recycled spec then reallocates at most once over its whole life.
  out.reserve(num_clusters);
  // `remainder` components get one extra task; emit them first so the list
  // is non-increasing.
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(base + (i < remainder ? 1u : 0u));
  }
}

std::vector<std::uint32_t> split_job(std::uint32_t total_size, std::uint32_t component_limit,
                                     std::uint32_t num_clusters) {
  std::vector<std::uint32_t> components;
  split_job_into(total_size, component_limit, num_clusters, components);
  return components;
}

}  // namespace mcsim
