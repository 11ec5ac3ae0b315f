// Placement of unordered requests onto clusters (paper Sect. 2.3).
//
// "To determine whether an unordered request fits, we try to schedule its
// components in decreasing order of their sizes on distinct clusters. We
// use Worst Fit (WF) to place the components on clusters."
//
// Worst Fit pairs the largest component with the most-idle cluster, the
// second largest with the second most-idle, and so on; with both lists
// sorted decreasingly this is also a *complete* fit test — if this pairing
// fails, no assignment to distinct clusters fits. First Fit and Best Fit
// are provided for ablation studies; Load-Aware is Worst Fit over idle
// *fractions* instead of idle counts, which differs from WF only on
// heterogeneous layouts (it spreads load evenly relative to cluster size
// rather than piling components onto the biggest cluster).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/multicluster.hpp"

namespace mcsim {

enum class PlacementRule { kWorstFit, kFirstFit, kBestFit, kLoadAware };

const char* placement_rule_name(PlacementRule rule);
/// Parse a placement-rule name ("WF", "ff", "best-fit", "load-aware", ...;
/// case-insensitive). Throws std::invalid_argument on anything else.
PlacementRule parse_placement_rule(const std::string& name);

/// Reusable working memory for the placement functions. The schedulers
/// keep one per instance and pass it to every attempt: after the first few
/// calls the buffers hold their high-water capacity and a placement
/// attempt — accepted or rejected — touches no allocator at all.
struct PlacementScratch {
  std::vector<ClusterId> order;            // clusters by decreasing idle
  std::vector<std::uint8_t> used;          // FF/BF distinct-cluster marks
  std::vector<std::uint32_t> remaining;    // ordered: idle left per cluster
};

/// Place `components` (must be non-increasing) on distinct clusters given
/// per-cluster idle counts. On a fit, writes one entry per component into
/// `out` (reusing its capacity) and returns true; otherwise clears `out`
/// and returns false. Ties on idle counts break toward the lower cluster
/// id, keeping runs deterministic. kLoadAware orders clusters by
/// idle/capacity (exact integer cross-multiplication) and needs one
/// capacity per cluster; the other rules ignore `capacities`.
bool place_components(const std::vector<std::uint32_t>& components,
                      const std::vector<std::uint32_t>& idle_counts,
                      const std::vector<std::uint32_t>& capacities, PlacementRule rule,
                      PlacementScratch& scratch, Allocation& out);

/// Convenience form for tests and cold callers: fresh scratch, a fresh
/// allocation or std::nullopt. No capacities, so kLoadAware throws.
std::optional<Allocation> place_components(const std::vector<std::uint32_t>& components,
                                           const std::vector<std::uint32_t>& idle_counts,
                                           PlacementRule rule = PlacementRule::kWorstFit);

/// Place a single-component job on one specific cluster (LS local jobs).
std::optional<Allocation> place_on_cluster(std::uint32_t processors, ClusterId cluster,
                                           const std::vector<std::uint32_t>& idle_counts);

/// Place an ORDERED request (the authors' model, refs [6,7]): component i
/// must go to cluster `clusters[i]` exactly; all-or-nothing. Writes into
/// `out` and returns true on a fit, clears `out` otherwise.
bool place_ordered(const std::vector<std::uint32_t>& components,
                   const std::vector<ClusterId>& clusters,
                   const std::vector<std::uint32_t>& idle_counts, PlacementScratch& scratch,
                   Allocation& out);

/// Convenience form of place_ordered (fresh scratch and allocation).
std::optional<Allocation> place_ordered(const std::vector<std::uint32_t>& components,
                                        const std::vector<ClusterId>& clusters,
                                        const std::vector<std::uint32_t>& idle_counts);

/// Place a FLEXIBLE request (refs [6,7]): only the total matters; the
/// scheduler splits it over clusters as it likes. Tries one cluster first
/// (WF), then spreads greedily over clusters by decreasing idle count.
/// Fits iff total_idle >= total. Writes into `out` and returns true on a
/// fit, clears `out` otherwise.
bool place_flexible(std::uint32_t total, const std::vector<std::uint32_t>& idle_counts,
                    PlacementScratch& scratch, Allocation& out);

/// Convenience form of place_flexible (fresh scratch and allocation).
std::optional<Allocation> place_flexible(std::uint32_t total,
                                         const std::vector<std::uint32_t>& idle_counts);

/// Fit test only (no allocation construction) — cheaper on the hot path.
bool components_fit(const std::vector<std::uint32_t>& components,
                    const std::vector<std::uint32_t>& idle_counts);

}  // namespace mcsim
