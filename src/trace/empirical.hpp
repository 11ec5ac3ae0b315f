// Deriving simulation input distributions from a trace — the "trace-based"
// step of the paper: "By sampling the job-size distribution as measured on
// the DAS1 we derive two distributions which we use in our simulations."
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "workload/discrete.hpp"

namespace mcsim {

/// Empirical job-size distribution of a trace (exact per-size frequencies).
DiscreteDistribution empirical_size_distribution(const std::vector<TraceRecord>& records);

/// Empirical size distribution of the trace cut at `max_size`
/// (the DAS-s-64 construction when max_size = 64).
DiscreteDistribution empirical_size_distribution_cut(const std::vector<TraceRecord>& records,
                                                     std::uint32_t max_size);

/// Empirical service-time distribution of the trace cut at `max_service`
/// seconds (the DAS-t-900 construction when max_service = 900), resampled
/// as a discrete distribution over the observed values.
DiscreteDistribution empirical_service_distribution(const std::vector<TraceRecord>& records,
                                                    double max_service);

}  // namespace mcsim
