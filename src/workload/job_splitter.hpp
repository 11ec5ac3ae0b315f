// Splitting total job sizes into co-allocation components (paper Sect. 2.4).
//
// Given a job-component-size limit L and a system of C clusters, the number
// of components is the smallest n with ceil(size/n) <= L, i.e.
// n = ceil(size/L) — but never more than C ("as long as the number of
// components does not exceed the number of clusters"; for very large jobs
// components may then exceed L). The job is split into components of sizes
// as equal as possible, listed in non-increasing order.
//
// Worked example from the paper (C = 4 clusters of 32): a job of size 64
// becomes (16,16,16,16) with L=16, (22,21,21) with L=24, (32,32) with L=32
// — the L=24 split is what makes that limit pack so badly (Sect. 3.3).
#pragma once

#include <cstdint>
#include <vector>

namespace mcsim {

/// Number of components for `total_size` under limit `component_limit` in a
/// system of `num_clusters` clusters.
std::uint32_t component_count(std::uint32_t total_size, std::uint32_t component_limit,
                              std::uint32_t num_clusters);

/// Component sizes, non-increasing, summing to `total_size`, written into
/// `out` (replacing its contents, reusing its capacity) — the job sources'
/// per-arrival path.
void split_job_into(std::uint32_t total_size, std::uint32_t component_limit,
                    std::uint32_t num_clusters, std::vector<std::uint32_t>& out);

/// split_job_into as a fresh vector, for cold callers.
std::vector<std::uint32_t> split_job(std::uint32_t total_size, std::uint32_t component_limit,
                                     std::uint32_t num_clusters);

}  // namespace mcsim
