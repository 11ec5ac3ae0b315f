// ASCII utilization timeline of a trace: how full was the machine over the
// span of the log? Used by the trace_analysis example and handy when
// eyeballing synthetic logs against real ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace mcsim {

/// Per-bucket mean utilization in [0,1] over [first submit, last end].
std::vector<double> utilization_profile(const std::vector<TraceRecord>& records,
                                        std::uint32_t capacity, std::size_t buckets);

/// Render the profile as a bar chart (rows of '#') with a 0..1 axis,
/// 72 buckets across and 8 rows high.
std::string render_utilization_timeline(const std::vector<TraceRecord>& records,
                                        std::uint32_t capacity);

}  // namespace mcsim
