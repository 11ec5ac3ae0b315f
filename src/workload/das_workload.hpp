// The DAS-derived workload model (paper Sect. 2.4).
//
// The paper samples two distributions measured on the 128-processor DAS1
// cluster: total job sizes (DAS-s-128, and DAS-s-64 = the log cut at 64)
// and service times (DAS-t-900 = the log cut at 900 s). The raw log is not
// available, so we reconstruct the distributions from every statistic the
// paper publishes (see DESIGN.md "Substitutions"):
//
//  * Table 1 fixes the probability of each power-of-two size exactly
//    (70.5% of all jobs); the remaining 29.5% is spread over 50 further
//    values with the small-number bias visible in Fig. 1, giving the
//    reported 58 distinct sizes in [1, 128].
//  * DAS-t-900 is a lognormal mixture (short interactive jobs + long
//    batch jobs shaped by the 15-minute working-hours kill limit),
//    conditioned on <= 900 s.
//
// Also here: the closed-form gross/net utilization ratio of Sect. 4 and the
// component-count fractions of Table 2, both computed from the size
// distribution + splitter.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "workload/discrete.hpp"
#include "workload/distribution.hpp"

namespace mcsim {

/// Paper defaults (see DESIGN.md for the garbled-value reconstruction).
namespace das {
inline constexpr std::uint32_t kNumClusters = 4;
inline constexpr std::uint32_t kClusterSize = 32;
inline constexpr std::uint32_t kTotalProcessors = kNumClusters * kClusterSize;
inline constexpr double kExtensionFactor = 1.25;
inline constexpr double kServiceCutSeconds = 900.0;
inline constexpr std::array<std::uint32_t, 3> kComponentLimits = {16, 24, 32};
/// Unbalanced local-queue weights: one hot queue, three cold.
inline constexpr std::array<double, 4> kUnbalancedWeights = {0.4, 0.2, 0.2, 0.2};
}  // namespace das

/// One row of Table 1.
struct PowerOfTwoFraction {
  std::uint32_t size;
  double fraction;
};

/// Table 1 of the paper: fractions of jobs with power-of-two sizes.
const std::vector<PowerOfTwoFraction>& das1_power_of_two_fractions();

/// DAS-s-128: total-job-size distribution over 58 values in [1,128].
const DiscreteDistribution& das_s_128();

/// DAS-s-64: DAS-s-128 cut at 64 and renormalised. `removed_mass`, if
/// non-null, receives the fraction of jobs excluded by the cut (~2%).
DiscreteDistribution das_s_64(double* removed_mass = nullptr);

/// DAS-t-900: service-time distribution, conditioned on [1, 900] seconds.
DistributionPtr das_t_900();

/// The *uncut* DAS1 service-time model (used by the synthetic log
/// generator; jobs beyond 900 s exist in it and are removed by the cut).
DistributionPtr das1_raw_service_times();

/// Table 2 row: fractions of jobs with 1..clusters components.
std::vector<double> component_count_fractions(const DiscreteDistribution& sizes,
                                              std::uint32_t limit, std::uint32_t clusters);

/// Closed-form ratio gross/net utilization (paper Sect. 4): the quotient of
/// the weighted mean total job size (multi-component jobs weighted by the
/// extension factor) and the mean total job size.
double gross_net_ratio(const DiscreteDistribution& sizes, std::uint32_t limit,
                       std::uint32_t clusters, double extension_factor);

/// E[size * extension(size)] — the expected gross processor-seconds per job
/// divided by the mean service time. Used to convert a target gross
/// utilization into an arrival rate.
double mean_extended_size(const DiscreteDistribution& sizes, std::uint32_t limit,
                          std::uint32_t clusters, double extension_factor);

}  // namespace mcsim
