#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(WorstFit, LargestComponentToMostIdleCluster) {
  const auto alloc = place_components({20, 10}, {5, 30, 25, 32});
  ASSERT_TRUE(alloc.has_value());
  ASSERT_EQ(alloc->size(), 2u);
  EXPECT_EQ((*alloc)[0].cluster, 3u);  // 32 idle gets the 20
  EXPECT_EQ((*alloc)[0].processors, 20u);
  EXPECT_EQ((*alloc)[1].cluster, 1u);  // 30 idle gets the 10
}

TEST(WorstFit, TieBreaksTowardLowerClusterId) {
  const auto alloc = place_components({8, 8}, {16, 16, 16, 16});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ((*alloc)[0].cluster, 0u);
  EXPECT_EQ((*alloc)[1].cluster, 1u);
}

TEST(WorstFit, ReportsNoFit) {
  EXPECT_FALSE(place_components({33}, {32, 32, 32, 32}).has_value());
  EXPECT_FALSE(place_components({20, 20}, {32, 16, 16, 16}).has_value());
}

TEST(WorstFit, FitEqualsExactCapacity) {
  const auto alloc = place_components({32, 32, 32, 32}, {32, 32, 32, 32});
  ASSERT_TRUE(alloc.has_value());
  std::set<ClusterId> used;
  for (const auto& p : *alloc) used.insert(p.cluster);
  EXPECT_EQ(used.size(), 4u);
}

TEST(WorstFit, PaperSection33Size64Limit24DoesNotFitTwice) {
  // Sect. 3.3: after (22,21,21) is placed on an empty 4x32 system, another
  // (22,21,21) does not fit.
  const auto first = place_components({22, 21, 21}, {32, 32, 32, 32});
  ASSERT_TRUE(first.has_value());
  std::vector<std::uint32_t> idle{32, 32, 32, 32};
  for (const auto& p : *first) idle[p.cluster] -= p.processors;
  EXPECT_FALSE(place_components({22, 21, 21}, idle).has_value());
  // But under limit 32 the second (32,32) still fits after the first.
  std::vector<std::uint32_t> idle32{0, 0, 32, 32};
  EXPECT_TRUE(place_components({32, 32}, idle32).has_value());
}

TEST(FirstFit, UsesLowestFittingClusters) {
  const auto alloc =
      place_components({10, 10}, {12, 8, 16, 32}, PlacementRule::kFirstFit);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ((*alloc)[0].cluster, 0u);
  EXPECT_EQ((*alloc)[1].cluster, 2u);  // cluster 1 too small
}

TEST(BestFit, PicksTightestCluster) {
  const auto alloc = place_components({10}, {32, 11, 16, 30}, PlacementRule::kBestFit);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ((*alloc)[0].cluster, 1u);
}

TEST(BestFit, DistinctClustersForComponents) {
  const auto alloc =
      place_components({10, 10}, {10, 10, 32, 32}, PlacementRule::kBestFit);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_NE((*alloc)[0].cluster, (*alloc)[1].cluster);
  EXPECT_EQ((*alloc)[0].cluster, 0u);
  EXPECT_EQ((*alloc)[1].cluster, 1u);
}

TEST(ComponentsFit, AgreesWithWorstFitPlacement) {
  Rng rng(404);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint32_t> idle(4);
    for (auto& x : idle) x = static_cast<std::uint32_t>(rng.uniform_int(33));
    const auto n = 1 + rng.uniform_int(4);
    std::vector<std::uint32_t> components(n);
    for (auto& c : components) c = 1 + static_cast<std::uint32_t>(rng.uniform_int(32));
    std::sort(components.rbegin(), components.rend());
    EXPECT_EQ(components_fit(components, idle),
              place_components(components, idle).has_value())
        << "trial " << trial;
  }
}

TEST(PlacementProperty, AllocationsAreValidAndDistinct) {
  Rng rng(505);
  for (PlacementRule rule :
       {PlacementRule::kWorstFit, PlacementRule::kFirstFit, PlacementRule::kBestFit}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<std::uint32_t> idle(5);
      for (auto& x : idle) x = static_cast<std::uint32_t>(rng.uniform_int(33));
      const auto n = 1 + rng.uniform_int(4);
      std::vector<std::uint32_t> components(n);
      for (auto& c : components) c = 1 + static_cast<std::uint32_t>(rng.uniform_int(24));
      std::sort(components.rbegin(), components.rend());
      const auto alloc = place_components(components, idle, rule);
      if (!alloc) continue;
      std::set<ClusterId> used;
      for (std::size_t i = 0; i < alloc->size(); ++i) {
        const auto& p = (*alloc)[i];
        EXPECT_TRUE(used.insert(p.cluster).second) << "duplicate cluster";
        EXPECT_LE(p.processors, idle[p.cluster]) << "component over idle";
        EXPECT_EQ(p.processors, components[i]);
      }
    }
  }
}

TEST(PlacementProperty, WorstFitIsCompleteFitTest) {
  // If any rule fits, WF must fit (WF is complete for distinct-cluster
  // assignment of sorted components).
  Rng rng(606);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint32_t> idle(4);
    for (auto& x : idle) x = static_cast<std::uint32_t>(rng.uniform_int(33));
    const auto n = 1 + rng.uniform_int(4);
    std::vector<std::uint32_t> components(n);
    for (auto& c : components) c = 1 + static_cast<std::uint32_t>(rng.uniform_int(32));
    std::sort(components.rbegin(), components.rend());
    const bool wf = place_components(components, idle, PlacementRule::kWorstFit).has_value();
    const bool ff = place_components(components, idle, PlacementRule::kFirstFit).has_value();
    const bool bf = place_components(components, idle, PlacementRule::kBestFit).has_value();
    if (ff || bf) {
      EXPECT_TRUE(wf) << "WF must dominate FF/BF on feasibility";
    }
  }
}

TEST(Placement, PreconditionsThrow) {
  EXPECT_THROW(place_components({}, {32}), std::invalid_argument);
  EXPECT_THROW(place_components({1, 2}, {32, 32}), std::invalid_argument);  // increasing
  EXPECT_THROW(place_components({1, 1, 1}, {32, 32}), std::invalid_argument);  // too many
}

TEST(PlacementRuleName, Names) {
  EXPECT_STREQ(placement_rule_name(PlacementRule::kWorstFit), "WF");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kFirstFit), "FF");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kBestFit), "BF");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kLoadAware), "LA");
  EXPECT_EQ(parse_placement_rule("la"), PlacementRule::kLoadAware);
  EXPECT_EQ(parse_placement_rule("load-aware"), PlacementRule::kLoadAware);
}

TEST(LoadAware, OrdersByIdleFractionNotAbsoluteIdle) {
  // Cluster 0: 20/64 idle (5/16); cluster 1: 18/32 idle (9/16). WF picks
  // cluster 0 (more idle processors); LA picks cluster 1 (higher idle
  // fraction).
  const std::vector<std::uint32_t> idle{20, 18};
  const std::vector<std::uint32_t> capacities{64, 32};
  PlacementScratch scratch;
  Allocation la;
  ASSERT_TRUE(
      place_components({10}, idle, capacities, PlacementRule::kLoadAware, scratch, la));
  EXPECT_EQ(la[0].cluster, 1u);
  Allocation wf;
  ASSERT_TRUE(
      place_components({10}, idle, capacities, PlacementRule::kWorstFit, scratch, wf));
  EXPECT_EQ(wf[0].cluster, 0u);
}

TEST(LoadAware, MatchesWorstFitOnHomogeneousCapacities) {
  // Equal capacities make idle/capacity order identical to idle order, so
  // LA and WF must make the same decisions.
  const std::vector<std::uint32_t> capacities{32, 32, 32, 32};
  PlacementScratch scratch;
  Rng rng(707);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint32_t> idle(4);
    for (auto& value : idle) value = static_cast<std::uint32_t>(rng.uniform_int(33));
    std::vector<std::uint32_t> components;
    const auto n = 1 + rng.uniform_int(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      components.push_back(1 + static_cast<std::uint32_t>(rng.uniform_int(24)));
    }
    std::sort(components.rbegin(), components.rend());
    Allocation la;
    Allocation wf;
    const bool la_fits = place_components(components, idle, capacities,
                                          PlacementRule::kLoadAware, scratch, la);
    const bool wf_fits = place_components(components, idle, capacities,
                                          PlacementRule::kWorstFit, scratch, wf);
    ASSERT_EQ(la_fits, wf_fits);
    ASSERT_EQ(la.size(), wf.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].cluster, wf[i].cluster);
      EXPECT_EQ(la[i].processors, wf[i].processors);
    }
  }
}

TEST(LoadAware, FractionTieBreaksTowardLowerClusterId) {
  // 16/32 and 32/64 are the same fraction; the lower id must win.
  const std::vector<std::uint32_t> idle{32, 16};
  const std::vector<std::uint32_t> capacities{64, 32};
  PlacementScratch scratch;
  Allocation alloc;
  ASSERT_TRUE(
      place_components({8}, idle, capacities, PlacementRule::kLoadAware, scratch, alloc));
  EXPECT_EQ(alloc[0].cluster, 0u);
}

TEST(LoadAware, RequiresTheCapacityAwareOverload) {
  // Without capacities there is no idle fraction to order by.
  EXPECT_THROW(place_components({8}, {32, 32}, PlacementRule::kLoadAware),
               std::invalid_argument);
  PlacementScratch scratch;
  Allocation alloc;
  EXPECT_THROW(
      place_components({8}, {32, 32}, {}, PlacementRule::kLoadAware, scratch, alloc),
      std::invalid_argument);
}

// The in-place form used by the schedulers: a reject clears whatever the
// caller's allocation held, an accept replaces it, and a warm buffer is
// reused rather than reallocated.
TEST(PlacementInPlace, AcceptReplacesAndRejectClearsTheAllocation) {
  const std::vector<std::uint32_t> capacities{32, 32, 32, 32};
  PlacementScratch scratch;
  Allocation out{ComponentPlacement{3, 99}, ComponentPlacement{2, 99},
                 ComponentPlacement{1, 99}, ComponentPlacement{0, 99}};
  const auto* buffer = out.data();
  for (const PlacementRule rule : {PlacementRule::kWorstFit, PlacementRule::kFirstFit,
                                   PlacementRule::kBestFit, PlacementRule::kLoadAware}) {
    SCOPED_TRACE(placement_rule_name(rule));
    ASSERT_TRUE(place_components({20, 10}, {5, 30, 25, 32}, capacities, rule, scratch, out));
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out, *place_components({20, 10}, {5, 30, 25, 32},
                                     rule == PlacementRule::kLoadAware
                                         ? PlacementRule::kWorstFit
                                         : rule));
    EXPECT_FALSE(place_components({33}, {32, 32, 32, 32}, capacities, rule, scratch, out));
    EXPECT_TRUE(out.empty());
  }
  EXPECT_TRUE(place_ordered({10, 8}, {2, 0}, {32, 32, 32, 32}, scratch, out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(place_ordered({17, 16}, {0, 0}, {32, 0, 0, 0}, scratch, out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(place_flexible(40, {32, 8, 16, 4}, scratch, out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(place_flexible(61, {32, 8, 16, 4}, scratch, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.data(), buffer);
}

/// Worst Fit by its definition: sort the cluster ids by (idle desc, id asc),
/// then pair component i with the i-th; the job fits iff every pair does.
bool reference_worst_fit(const std::vector<std::uint32_t>& components,
                         const std::vector<std::uint32_t>& idle, Allocation& out) {
  std::vector<ClusterId> order(idle.size());
  for (ClusterId c = 0; c < idle.size(); ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(),
                   [&](ClusterId a, ClusterId b) { return idle[a] > idle[b]; });
  out.clear();
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i] > idle[order[i]]) {
      out.clear();
      return false;
    }
    out.push_back(ComponentPlacement{order[i], components[i]});
  }
  return true;
}

/// Every non-increasing list of 1..max_count components sized 1..max_size.
std::vector<std::vector<std::uint32_t>> non_increasing_lists(std::uint32_t max_count,
                                                             std::uint32_t max_size) {
  std::vector<std::vector<std::uint32_t>> lists;
  std::vector<std::uint32_t> list;
  const auto extend = [&](const auto& self, std::uint32_t ceiling) -> void {
    for (std::uint32_t size = 1; size <= ceiling; ++size) {
      list.push_back(size);
      lists.push_back(list);
      if (list.size() < max_count) self(self, size);
      list.pop_back();
    }
  };
  extend(extend, max_size);
  return lists;
}

// The Worst Fit attempt settles most jobs on the most idle cluster alone
// and sorts only for co-allocated jobs. Exhaustively on 4 clusters of 0..8
// idle processors, against every component list that fits or misses by
// one, it must agree with the definition in both the decision and the
// allocation — ties, zeros and all.
TEST(WorstFit, AgreesWithSortAndPairOnEverySmallCase) {
  constexpr std::uint32_t kMaxIdle = 8;
  const auto lists = non_increasing_lists(4, kMaxIdle + 1);
  ASSERT_EQ(lists.size(), 9u + 45u + 165u + 495u);
  PlacementScratch scratch;
  Allocation placed;
  Allocation expected;
  std::vector<std::uint32_t> idle(4);
  std::size_t cases = 0;
  std::size_t fits = 0;
  for (std::uint32_t code = 0; code < 9 * 9 * 9 * 9; ++code) {
    for (std::uint32_t c = 0, rest = code; c < 4; ++c, rest /= 9) idle[c] = rest % 9;
    for (const auto& components : lists) {
      const bool fit = place_components(components, idle, {}, PlacementRule::kWorstFit,
                                        scratch, placed);
      const bool reference = reference_worst_fit(components, idle, expected);
      ++cases;
      if (fit != reference || placed != expected) {
        ADD_FAILURE() << "idle {" << idle[0] << ',' << idle[1] << ',' << idle[2] << ','
                      << idle[3] << "}, " << components.size()
                      << " components led by " << components.front();
        return;
      }
      if (fit) ++fits;
    }
  }
  EXPECT_EQ(cases, 6561u * lists.size());
  EXPECT_GT(fits, 0u);
  EXPECT_LT(fits, cases);
}

}  // namespace
}  // namespace mcsim
