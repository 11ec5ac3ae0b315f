#include "trace/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

std::vector<double> utilization_profile(const std::vector<TraceRecord>& records,
                                        std::uint32_t capacity, std::size_t buckets) {
  MCSIM_REQUIRE(capacity > 0, "capacity must be positive");
  MCSIM_REQUIRE(buckets > 0, "need at least one bucket");
  std::vector<double> profile(buckets, 0.0);
  if (records.empty()) return profile;

  double t0 = records.front().submit_time;
  double t1 = records.front().end_time();
  for (const auto& rec : records) {
    t0 = std::min(t0, rec.submit_time);
    t1 = std::max(t1, rec.end_time());
  }
  const double span = t1 - t0;
  if (span <= 0.0) return profile;
  const double width = span / static_cast<double>(buckets);

  // Accumulate busy processor-seconds per bucket by clipping each job's
  // [start, end) against the bucket edges.
  for (const auto& rec : records) {
    if (rec.end_time() <= rec.start_time()) continue;
    const auto first =
        static_cast<std::size_t>(std::clamp((rec.start_time() - t0) / width, 0.0,
                                            static_cast<double>(buckets - 1)));
    const auto last =
        static_cast<std::size_t>(std::clamp((rec.end_time() - t0) / width, 0.0,
                                            static_cast<double>(buckets - 1)));
    for (std::size_t b = first; b <= last; ++b) {
      const double bucket_lo = t0 + width * static_cast<double>(b);
      const double bucket_hi = bucket_lo + width;
      const double overlap =
          std::min(rec.end_time(), bucket_hi) - std::max(rec.start_time(), bucket_lo);
      if (overlap > 0.0) {
        profile[b] += overlap * static_cast<double>(rec.processors);
      }
    }
  }
  for (double& value : profile) {
    value /= width * static_cast<double>(capacity);
    value = std::clamp(value, 0.0, 1.0);
  }
  return profile;
}

std::string render_utilization_timeline(const std::vector<TraceRecord>& records,
                                        std::uint32_t capacity) {
  constexpr std::size_t kBuckets = 72;  // characters across
  constexpr std::size_t kHeight = 8;    // rows of the chart
  const auto profile = utilization_profile(records, capacity, kBuckets);
  std::ostringstream out;
  out << "utilization over the log span (" << kBuckets << " buckets)\n";
  for (std::size_t row = kHeight; row-- > 0;) {
    const double threshold = (static_cast<double>(row) + 0.5) / static_cast<double>(kHeight);
    out << (row == kHeight - 1 ? "1.0 |" : (row == 0 ? "0.0 |" : "    |"));
    for (double value : profile) out << (value >= threshold ? '#' : ' ');
    out << "|\n";
  }
  out << "    +" << std::string(kBuckets, '-') << "+\n";
  double mean = 0.0;
  for (double value : profile) mean += value;
  mean /= static_cast<double>(profile.size());
  out << "    mean utilization: " << format_util(mean) << '\n';
  return out.str();
}

}  // namespace mcsim
