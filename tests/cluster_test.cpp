#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/multicluster.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(Cluster, StartsFullyIdle) {
  Cluster cluster(0, 32);
  EXPECT_EQ(cluster.capacity(), 32u);
  EXPECT_EQ(cluster.idle(), 32u);
  EXPECT_EQ(cluster.busy(), 0u);
}

TEST(Cluster, AllocateAndRelease) {
  Cluster cluster(1, 32);
  cluster.allocate(20);
  EXPECT_EQ(cluster.idle(), 12u);
  EXPECT_EQ(cluster.busy(), 20u);
  cluster.release(5);
  EXPECT_EQ(cluster.idle(), 17u);
}

TEST(Cluster, FitsChecksIdle) {
  Cluster cluster(0, 10);
  cluster.allocate(7);
  EXPECT_TRUE(cluster.fits(3));
  EXPECT_FALSE(cluster.fits(4));
  EXPECT_TRUE(cluster.fits(0));
}

TEST(Cluster, OverAllocationThrows) {
  Cluster cluster(0, 8);
  EXPECT_THROW(cluster.allocate(9), std::invalid_argument);
  cluster.allocate(8);
  EXPECT_THROW(cluster.allocate(1), std::invalid_argument);
}

TEST(Cluster, OverReleaseThrows) {
  Cluster cluster(0, 8);
  cluster.allocate(3);
  EXPECT_THROW(cluster.release(4), std::invalid_argument);
}

TEST(Cluster, ZeroCapacityThrows) {
  EXPECT_THROW(Cluster(0, 0), std::invalid_argument);
}

TEST(Multicluster, UniformConstruction) {
  Multicluster system(4, 32);
  EXPECT_EQ(system.num_clusters(), 4u);
  EXPECT_EQ(system.total_processors(), 128u);
  EXPECT_EQ(system.total_idle(), 128u);
  EXPECT_EQ(system.cluster(2).capacity(), 32u);
}

TEST(Multicluster, HeterogeneousConstruction) {
  // The real DAS2 layout: one 72-node cluster and four 32-node clusters.
  Multicluster system(std::vector<std::uint32_t>{72, 32, 32, 32, 32});
  EXPECT_EQ(system.num_clusters(), 5u);
  EXPECT_EQ(system.total_processors(), 200u);
  EXPECT_EQ(system.cluster(0).capacity(), 72u);
}

TEST(Multicluster, AllocationAppliesPerCluster) {
  Multicluster system(4, 32);
  Allocation alloc{{0, 16}, {2, 10}};
  system.allocate(alloc);
  EXPECT_EQ(system.cluster(0).idle(), 16u);
  EXPECT_EQ(system.cluster(1).idle(), 32u);
  EXPECT_EQ(system.cluster(2).idle(), 22u);
  EXPECT_EQ(system.total_busy(), 26u);
  system.release(alloc);
  EXPECT_EQ(system.total_idle(), 128u);
}

TEST(Multicluster, MultipleComponentsOnSameClusterAllowed) {
  // The model never produces this, but the container must account for it.
  Multicluster system(2, 32);
  Allocation alloc{{0, 16}, {0, 16}};
  system.allocate(alloc);
  EXPECT_EQ(system.cluster(0).idle(), 0u);
  system.release(alloc);
  EXPECT_EQ(system.cluster(0).idle(), 32u);
}

TEST(Multicluster, FailedAllocationLeavesStateUnchanged) {
  Multicluster system(2, 32);
  system.allocate({{0, 30}});
  // Second placement does not fit on cluster 0; whole allocation must fail
  // atomically even though the cluster-1 part would fit.
  EXPECT_THROW(system.allocate({{1, 10}, {0, 10}}), std::invalid_argument);
  EXPECT_EQ(system.cluster(1).idle(), 32u);
  EXPECT_EQ(system.cluster(0).idle(), 2u);
}

TEST(Multicluster, UnknownClusterThrows) {
  Multicluster system(2, 32);
  EXPECT_THROW(system.allocate({{5, 1}}), std::invalid_argument);
  EXPECT_THROW(system.release({{5, 1}}), std::invalid_argument);
}

TEST(Multicluster, IdleCountsSnapshot) {
  Multicluster system(3, 16);
  system.allocate({{1, 10}});
  const auto idle = system.idle_counts();
  ASSERT_EQ(idle.size(), 3u);
  EXPECT_EQ(idle[0], 16u);
  EXPECT_EQ(idle[1], 6u);
  EXPECT_EQ(idle[2], 16u);
}

// The placement rules read idle_counts() in place, so it must track every
// allocate and release, the rejected ones (which change nothing) included.
TEST(Multicluster, IdleCountsFollowEveryAllocateAndRelease) {
  Multicluster system(std::vector<std::uint32_t>{8, 16, 4, 32});
  Rng rng(29);
  std::vector<Allocation> held;
  const auto agree = [&] {
    const std::vector<std::uint32_t>& idle = system.idle_counts();
    ASSERT_EQ(idle.size(), system.num_clusters());
    for (ClusterId c = 0; c < system.num_clusters(); ++c) {
      ASSERT_EQ(idle[c], system.cluster(c).idle()) << "cluster " << c;
    }
  };
  const std::vector<std::uint32_t>* const address = &system.idle_counts();
  for (int step = 0; step < 4000; ++step) {
    if (held.empty() || rng.uniform_int(3) != 0) {
      Allocation allocation;
      for (std::uint64_t n = 1 + rng.uniform_int(3); n > 0; --n) {
        allocation.push_back({static_cast<ClusterId>(rng.uniform_int(4)),
                              static_cast<std::uint32_t>(1 + rng.uniform_int(12))});
      }
      try {
        system.allocate(allocation);
        held.push_back(allocation);
      } catch (const std::invalid_argument&) {
        // Too large for what is idle: the system is unchanged.
      }
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(held.size()));
      system.release(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
    agree();
  }
  EXPECT_EQ(&system.idle_counts(), address);
}

TEST(Multicluster, UnitSpeedsOnlyWhenEveryClusterRunsAtOne) {
  EXPECT_TRUE(Multicluster(4, 32).unit_speeds());
  EXPECT_TRUE(Multicluster(std::vector<std::uint32_t>{8, 16}).unit_speeds());
  EXPECT_TRUE(Multicluster({8, 16}, {1.0, 1.0}).unit_speeds());
  EXPECT_FALSE(Multicluster({8, 16}, {1.0, 0.5}).unit_speeds());
  EXPECT_FALSE(Multicluster({8, 16}, {2.0, 2.0}).unit_speeds());
}

TEST(Multicluster, EmptyLayoutThrows) {
  EXPECT_THROW(Multicluster(std::vector<std::uint32_t>{}), std::invalid_argument);
  EXPECT_THROW(Multicluster(0, 32), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
