#include "trace/empirical.hpp"

#include <map>
#include <vector>

#include "trace/trace_stats.hpp"
#include "util/assert.hpp"

namespace mcsim {

namespace {
DiscreteDistribution from_counts(const std::map<double, std::uint64_t>& counts) {
  MCSIM_REQUIRE(!counts.empty(), "trace has no usable records");
  std::vector<double> values;
  std::vector<double> weights;
  values.reserve(counts.size());
  weights.reserve(counts.size());
  for (const auto& [value, count] : counts) {
    values.push_back(value);
    weights.push_back(static_cast<double>(count));
  }
  return DiscreteDistribution(std::move(values), std::move(weights));
}
}  // namespace

DiscreteDistribution empirical_size_distribution(const std::vector<TraceRecord>& records) {
  std::map<double, std::uint64_t> counts;
  for (const auto& rec : records) {
    if (rec.processors > 0) ++counts[static_cast<double>(rec.processors)];
  }
  return from_counts(counts);
}

DiscreteDistribution empirical_size_distribution_cut(const std::vector<TraceRecord>& records,
                                                     std::uint32_t max_size) {
  return empirical_size_distribution(cut_by_size(records, max_size));
}

DiscreteDistribution empirical_service_distribution(const std::vector<TraceRecord>& records,
                                                    double max_service) {
  std::map<double, std::uint64_t> counts;
  for (const auto& rec : cut_by_service(records, max_service)) {
    const double service = rec.service_time();
    if (service > 0.0) ++counts[service];
  }
  return from_counts(counts);
}

}  // namespace mcsim
