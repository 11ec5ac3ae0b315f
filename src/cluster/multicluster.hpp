// The multicluster system: C clusters of possibly different sizes
// (paper Sect. 2.2). Allocations map job components onto clusters; the
// Allocation type records which cluster received how many processors so a
// departure releases exactly what was taken.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/assert.hpp"

namespace mcsim {

/// One component's placement: `processors` CPUs on cluster `cluster`.
struct ComponentPlacement {
  ClusterId cluster = 0;
  std::uint32_t processors = 0;

  bool operator==(const ComponentPlacement&) const = default;
};

/// A full job allocation (one entry per component).
using Allocation = std::vector<ComponentPlacement>;

class Multicluster {
 public:
  /// Uniform system: `num_clusters` clusters of `cluster_size` each.
  Multicluster(std::uint32_t num_clusters, std::uint32_t cluster_size);

  /// Heterogeneous system with explicit per-cluster sizes.
  explicit Multicluster(const std::vector<std::uint32_t>& cluster_sizes);

  /// Heterogeneous sizes AND speeds (relative service rates; all 1.0 in the
  /// paper's homogeneous model).
  Multicluster(const std::vector<std::uint32_t>& cluster_sizes,
               const std::vector<double>& cluster_speeds);

  /// Slowest speed among the clusters in `allocation` — a co-allocated
  /// job's tasks synchronise, so it runs at the pace of its slowest
  /// cluster.
  [[nodiscard]] double slowest_speed(const Allocation& allocation) const {
    MCSIM_REQUIRE(!allocation.empty(), "allocation is empty");
    double slowest = clusters_.at(allocation.front().cluster).speed();
    for (std::size_t i = 1; i < allocation.size(); ++i) {
      slowest = std::min(slowest, clusters_.at(allocation[i].cluster).speed());
    }
    return slowest;
  }

  /// True when every cluster runs at speed 1.0 (the paper's homogeneous
  /// model): every job then runs for its gross service time as is.
  [[nodiscard]] bool unit_speeds() const { return unit_speeds_; }

  [[nodiscard]] std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(clusters_.size());
  }
  [[nodiscard]] const Cluster& cluster(ClusterId id) const { return clusters_.at(id); }
  [[nodiscard]] std::uint32_t total_processors() const { return total_; }
  [[nodiscard]] std::uint32_t total_idle() const;
  [[nodiscard]] std::uint32_t total_busy() const { return total_ - total_idle(); }

  /// Idle counts per cluster, kept current by allocate() and release():
  /// the placement rules read them in place, so an attempt copies nothing.
  /// The reference stays valid for the system's lifetime.
  [[nodiscard]] const std::vector<std::uint32_t>& idle_counts() const { return idle_; }

  /// Apply an allocation (allocates on each named cluster). A failed
  /// allocation leaves the system unchanged.
  void allocate(const Allocation& allocation) {
    if (allocation.size() != 1) {
      allocate_spread(allocation);
      return;
    }
    // One placement: Cluster::allocate's own check is the whole validation.
    const ComponentPlacement& placement = allocation.front();
    MCSIM_REQUIRE(placement.cluster < clusters_.size(), "placement names an unknown cluster");
    clusters_[placement.cluster].allocate(placement.processors);
    idle_[placement.cluster] -= placement.processors;
  }

  /// Undo an allocation.
  void release(const Allocation& allocation) {
    for (const auto& placement : allocation) {
      MCSIM_REQUIRE(placement.cluster < clusters_.size(),
                    "placement names an unknown cluster");
      clusters_[placement.cluster].release(placement.processors);
      idle_[placement.cluster] += placement.processors;
    }
  }

 private:
  /// allocate() for zero or several placements: validates the summed
  /// demand per cluster before touching any.
  void allocate_spread(const Allocation& allocation);

  std::vector<Cluster> clusters_;
  /// clusters_[c].idle() for each c, as one vector.
  std::vector<std::uint32_t> idle_;
  std::uint32_t total_ = 0;
  bool unit_speeds_ = true;
  /// Reused by allocate()'s validation pass (one job start per loop
  /// iteration on the hot path; the scratch keeps it allocation-free).
  std::vector<std::uint32_t> validate_scratch_;
};

}  // namespace mcsim
