#include "cluster/multicluster.hpp"

#include "util/assert.hpp"

namespace mcsim {

Multicluster::Multicluster(std::uint32_t num_clusters, std::uint32_t cluster_size) {
  MCSIM_REQUIRE(num_clusters > 0, "system must have clusters");
  clusters_.reserve(num_clusters);
  for (std::uint32_t i = 0; i < num_clusters; ++i) {
    clusters_.emplace_back(i, cluster_size);
    total_ += cluster_size;
  }
  idle_.assign(num_clusters, cluster_size);
}

Multicluster::Multicluster(const std::vector<std::uint32_t>& cluster_sizes) {
  MCSIM_REQUIRE(!cluster_sizes.empty(), "system must have clusters");
  clusters_.reserve(cluster_sizes.size());
  for (std::size_t i = 0; i < cluster_sizes.size(); ++i) {
    clusters_.emplace_back(static_cast<ClusterId>(i), cluster_sizes[i]);
    total_ += cluster_sizes[i];
  }
  idle_ = cluster_sizes;
}

Multicluster::Multicluster(const std::vector<std::uint32_t>& cluster_sizes,
                           const std::vector<double>& cluster_speeds) {
  MCSIM_REQUIRE(!cluster_sizes.empty(), "system must have clusters");
  MCSIM_REQUIRE(cluster_sizes.size() == cluster_speeds.size(),
                "sizes and speeds must align");
  clusters_.reserve(cluster_sizes.size());
  for (std::size_t i = 0; i < cluster_sizes.size(); ++i) {
    clusters_.emplace_back(static_cast<ClusterId>(i), cluster_sizes[i], cluster_speeds[i]);
    total_ += cluster_sizes[i];
    unit_speeds_ = unit_speeds_ && cluster_speeds[i] == 1.0;
  }
  idle_ = cluster_sizes;
}

std::uint32_t Multicluster::total_idle() const {
  std::uint32_t idle = 0;
  for (const auto& c : clusters_) idle += c.idle();
  return idle;
}

void Multicluster::allocate_spread(const Allocation& allocation) {
  // Validate first so a failed allocation leaves the system unchanged.
  validate_scratch_.assign(clusters_.size(), 0);
  for (const auto& placement : allocation) {
    MCSIM_REQUIRE(placement.cluster < clusters_.size(), "placement names an unknown cluster");
    validate_scratch_[placement.cluster] += placement.processors;
  }
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    MCSIM_REQUIRE(validate_scratch_[i] <= clusters_[i].idle(),
                  "allocation exceeds idle processors");
  }
  for (const auto& placement : allocation) {
    clusters_[placement.cluster].allocate(placement.processors);
    idle_[placement.cluster] -= placement.processors;
  }
}

}  // namespace mcsim
