// The multicluster system: C clusters of possibly different sizes
// (paper Sect. 2.2). Allocations map job components onto clusters; the
// Allocation type records which cluster received how many processors so a
// departure releases exactly what was taken.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"

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
  [[nodiscard]] double slowest_speed(const Allocation& allocation) const;

  [[nodiscard]] std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(clusters_.size());
  }
  [[nodiscard]] const Cluster& cluster(ClusterId id) const { return clusters_.at(id); }
  [[nodiscard]] std::uint32_t total_processors() const { return total_; }
  [[nodiscard]] std::uint32_t total_idle() const;
  [[nodiscard]] std::uint32_t total_busy() const { return total_ - total_idle(); }

  /// Idle counts per cluster (a snapshot the placement policies work on).
  [[nodiscard]] std::vector<std::uint32_t> idle_counts() const;

  /// Allocation-free variant for the placement hot path: refills `out`
  /// in place, reusing its capacity. Every placement attempt snapshots the
  /// idle counts, so the schedulers pass a per-scheduler scratch vector
  /// here instead of taking a fresh heap vector per attempt.
  void idle_counts_into(std::vector<std::uint32_t>& out) const;

  /// Apply an allocation (allocates on each named cluster).
  void allocate(const Allocation& allocation);

  /// Undo an allocation.
  void release(const Allocation& allocation);

 private:
  std::vector<Cluster> clusters_;
  std::uint32_t total_ = 0;
  /// Reused by allocate()'s validation pass (one job start per loop
  /// iteration on the hot path; the scratch keeps it allocation-free).
  std::vector<std::uint32_t> validate_scratch_;
};

}  // namespace mcsim
