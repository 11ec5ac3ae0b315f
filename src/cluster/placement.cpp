#include "cluster/placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

const char* placement_rule_name(PlacementRule rule) {
  switch (rule) {
    case PlacementRule::kWorstFit: return "WF";
    case PlacementRule::kFirstFit: return "FF";
    case PlacementRule::kBestFit: return "BF";
    case PlacementRule::kLoadAware: return "LA";
  }
  return "?";
}

PlacementRule parse_placement_rule(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "wf" || lower == "worst-fit" || lower == "worstfit") {
    return PlacementRule::kWorstFit;
  }
  if (lower == "ff" || lower == "first-fit" || lower == "firstfit") {
    return PlacementRule::kFirstFit;
  }
  if (lower == "bf" || lower == "best-fit" || lower == "bestfit") {
    return PlacementRule::kBestFit;
  }
  if (lower == "la" || lower == "load-aware" || lower == "loadaware") {
    return PlacementRule::kLoadAware;
  }
  MCSIM_REQUIRE(false,
                "unknown placement rule: " + name + " (expected WF, FF, BF, or LA)");
  return PlacementRule::kWorstFit;
}

namespace {

bool is_non_increasing(const std::vector<std::uint32_t>& v) {
  return std::is_sorted(v.rbegin(), v.rend());
}

/// Fill `order` with cluster ids by (idle desc, id asc). Stable insertion
/// sort into the scratch vector: no allocation once the scratch holds its
/// capacity (std::stable_sort would take a temporary buffer per call), and
/// C is small — the paper's systems have 4-8 clusters.
void clusters_by_idle_desc(const std::vector<std::uint32_t>& idle,
                           std::vector<ClusterId>& order) {
  order.clear();
  order.reserve(idle.size());
  for (ClusterId c = 0; c < idle.size(); ++c) {
    auto it = order.begin();
    while (it != order.end() && idle[*it] >= idle[c]) ++it;
    order.insert(it, c);
  }
}

/// No placement spans more entries than there are clusters: reserving that
/// once means a job's allocation buffer grows at most once over its life.
void reserve_per_cluster(const std::vector<std::uint32_t>& idle, Allocation& out) {
  out.reserve(idle.size());
}

/// Pair component i with cluster order[i] — the WF and LA rules, which
/// differ only in the order. The pairing is decided before `out` is
/// written.
bool pair_in_order(const std::vector<std::uint32_t>& components,
                   const std::vector<std::uint32_t>& idle, const std::vector<ClusterId>& order,
                   Allocation& out) {
  out.clear();
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i] > idle[order[i]]) return false;
  }
  for (std::size_t i = 0; i < components.size(); ++i) {
    out.push_back(ComponentPlacement{order[i], components[i]});
  }
  return true;
}

bool place_first_fit(const std::vector<std::uint32_t>& components,
                     const std::vector<std::uint32_t>& idle, PlacementScratch& scratch,
                     Allocation& out) {
  scratch.used.assign(idle.size(), 0);
  out.clear();
  for (std::uint32_t component : components) {
    bool placed = false;
    for (ClusterId c = 0; c < idle.size(); ++c) {
      if (scratch.used[c] == 0 && component <= idle[c]) {
        scratch.used[c] = 1;
        out.push_back(ComponentPlacement{c, component});
        placed = true;
        break;
      }
    }
    if (!placed) {
      out.clear();
      return false;
    }
  }
  return true;
}

/// Fill `order` with cluster ids by (idle fraction desc, id asc). The
/// comparison cross-multiplies (idle[a]/cap[a] vs idle[b]/cap[b] becomes
/// idle[a]*cap[b] vs idle[b]*cap[a]) so ordering stays exact — no floating
/// point, no platform drift.
void clusters_by_idle_fraction_desc(const std::vector<std::uint32_t>& idle,
                                    const std::vector<std::uint32_t>& capacities,
                                    std::vector<ClusterId>& order) {
  order.clear();
  order.reserve(idle.size());
  const auto fraction_at_least = [&](ClusterId a, ClusterId b) {
    // idle[a]/cap[a] >= idle[b]/cap[b], exactly.
    return static_cast<std::uint64_t>(idle[a]) * capacities[b] >=
           static_cast<std::uint64_t>(idle[b]) * capacities[a];
  };
  for (ClusterId c = 0; c < idle.size(); ++c) {
    auto it = order.begin();
    while (it != order.end() && fraction_at_least(*it, c)) ++it;
    order.insert(it, c);
  }
}

bool place_best_fit(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle, PlacementScratch& scratch,
                    Allocation& out) {
  scratch.used.assign(idle.size(), 0);
  out.clear();
  for (std::uint32_t component : components) {
    ClusterId best = static_cast<ClusterId>(idle.size());
    std::uint32_t best_idle = 0;
    for (ClusterId c = 0; c < idle.size(); ++c) {
      if (scratch.used[c] != 0 || component > idle[c]) continue;
      if (best == idle.size() || idle[c] < best_idle) {
        best = c;
        best_idle = idle[c];
      }
    }
    if (best == idle.size()) {
      out.clear();
      return false;
    }
    scratch.used[best] = 1;
    out.push_back(ComponentPlacement{best, component});
  }
  return true;
}

}  // namespace

bool place_components(const std::vector<std::uint32_t>& components,
                      const std::vector<std::uint32_t>& idle_counts,
                      const std::vector<std::uint32_t>& capacities, PlacementRule rule,
                      PlacementScratch& scratch, Allocation& out) {
  MCSIM_REQUIRE(!components.empty(), "request has no components");
  MCSIM_REQUIRE(components.size() <= idle_counts.size(),
                "more components than clusters");
  MCSIM_REQUIRE(is_non_increasing(components), "components must be non-increasing");
  reserve_per_cluster(idle_counts, out);
  switch (rule) {
    case PlacementRule::kWorstFit:
      // WF pairing doubles as the complete fit test.
      clusters_by_idle_desc(idle_counts, scratch.order);
      return pair_in_order(components, idle_counts, scratch.order, out);
    case PlacementRule::kFirstFit:
      return place_first_fit(components, idle_counts, scratch, out);
    case PlacementRule::kBestFit:
      return place_best_fit(components, idle_counts, scratch, out);
    case PlacementRule::kLoadAware:
      MCSIM_REQUIRE(capacities.size() == idle_counts.size(),
                    "load-aware placement needs one capacity per cluster");
      // Unlike WF, the fraction pairing is not a complete fit test on
      // heterogeneous layouts: a reject is the rule's decision, not a
      // proof that nothing fits.
      clusters_by_idle_fraction_desc(idle_counts, capacities, scratch.order);
      return pair_in_order(components, idle_counts, scratch.order, out);
  }
  out.clear();
  return false;
}

std::optional<Allocation> place_components(const std::vector<std::uint32_t>& components,
                                           const std::vector<std::uint32_t>& idle_counts,
                                           PlacementRule rule) {
  PlacementScratch scratch;
  Allocation allocation;
  if (!place_components(components, idle_counts, {}, rule, scratch, allocation)) {
    return std::nullopt;
  }
  return allocation;
}

std::optional<Allocation> place_on_cluster(std::uint32_t processors, ClusterId cluster,
                                           const std::vector<std::uint32_t>& idle_counts) {
  MCSIM_REQUIRE(cluster < idle_counts.size(), "unknown cluster");
  if (processors > idle_counts[cluster]) return std::nullopt;
  return Allocation{ComponentPlacement{cluster, processors}};
}

bool place_ordered(const std::vector<std::uint32_t>& components,
                   const std::vector<ClusterId>& clusters,
                   const std::vector<std::uint32_t>& idle_counts, PlacementScratch& scratch,
                   Allocation& out) {
  MCSIM_REQUIRE(!components.empty(), "request has no components");
  MCSIM_REQUIRE(components.size() == clusters.size(),
                "ordered request needs one cluster per component");
  std::vector<std::uint32_t>& remaining = scratch.remaining;
  remaining.assign(idle_counts.begin(), idle_counts.end());
  reserve_per_cluster(idle_counts, out);
  out.clear();
  for (std::size_t i = 0; i < components.size(); ++i) {
    MCSIM_REQUIRE(clusters[i] < idle_counts.size(), "ordered request names unknown cluster");
    if (components[i] > remaining[clusters[i]]) {
      out.clear();
      return false;
    }
    remaining[clusters[i]] -= components[i];
    out.push_back(ComponentPlacement{clusters[i], components[i]});
  }
  return true;
}

std::optional<Allocation> place_ordered(const std::vector<std::uint32_t>& components,
                                        const std::vector<ClusterId>& clusters,
                                        const std::vector<std::uint32_t>& idle_counts) {
  PlacementScratch scratch;
  Allocation allocation;
  if (!place_ordered(components, clusters, idle_counts, scratch, allocation)) {
    return std::nullopt;
  }
  return allocation;
}

bool place_flexible(std::uint32_t total, const std::vector<std::uint32_t>& idle_counts,
                    PlacementScratch& scratch, Allocation& out) {
  MCSIM_REQUIRE(total > 0, "request must ask for processors");
  // Whole-job fit on one cluster first (Worst Fit keeps big holes open).
  clusters_by_idle_desc(idle_counts, scratch.order);
  const std::vector<ClusterId>& order = scratch.order;
  reserve_per_cluster(idle_counts, out);
  out.clear();
  if (idle_counts[order.front()] >= total) {
    out.push_back(ComponentPlacement{order.front(), total});
    return true;
  }
  // Otherwise spread greedily over clusters by decreasing idle count.
  std::uint32_t left = total;
  for (ClusterId cluster : order) {
    const std::uint32_t take = std::min(left, idle_counts[cluster]);
    if (take == 0) break;
    out.push_back(ComponentPlacement{cluster, take});
    left -= take;
    if (left == 0) return true;
  }
  out.clear();
  return false;
}

std::optional<Allocation> place_flexible(std::uint32_t total,
                                         const std::vector<std::uint32_t>& idle_counts) {
  PlacementScratch scratch;
  Allocation allocation;
  if (!place_flexible(total, idle_counts, scratch, allocation)) return std::nullopt;
  return allocation;
}

bool components_fit(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle_counts) {
  if (components.size() > idle_counts.size()) return false;
  MCSIM_ASSERT(is_non_increasing(components));
  // Sort idle counts decreasingly; the i-th largest component must fit the
  // i-th most idle cluster (matching the WF feasibility argument).
  std::vector<std::uint32_t> idle = idle_counts;
  std::sort(idle.rbegin(), idle.rend());
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i] > idle[i]) return false;
  }
  return true;
}

}  // namespace mcsim
