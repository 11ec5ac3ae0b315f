#include "workload/das_workload.hpp"

#include <cmath>
#include <memory>

#include "util/assert.hpp"
#include "workload/distributions.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {

const std::vector<PowerOfTwoFraction>& das1_power_of_two_fractions() {
  // Table 1, verbatim.
  static const std::vector<PowerOfTwoFraction> kTable = {
      {1, 0.091}, {2, 0.130}, {4, 0.087}, {8, 0.066},
      {16, 0.090}, {32, 0.039}, {64, 0.190}, {128, 0.012},
  };
  return kTable;
}

namespace {

DiscreteDistribution build_das_s_128() {
  // Power-of-two sizes carry exactly the Table 1 mass (sums to 0.705).
  std::vector<double> values;
  std::vector<double> weights;
  for (const auto& row : das1_power_of_two_fractions()) {
    values.push_back(static_cast<double>(row.size));
    weights.push_back(row.fraction);
  }

  // The remaining 0.295 goes to 50 non-power values (58 distinct sizes, as
  // the paper reports). Table 2's single-component column pins the band
  // masses exactly: P(size<=16) = 0.513, P(size<=24) = 0.738,
  // P(size<=32) = 0.780. With the power-of-two mass fixed by Table 1 this
  // forces the non-power mass per band:
  //   [3,16):   0.513 - 0.464          = 0.049
  //   (16,24]:  0.738 - 0.513          = 0.225   (the DAS's popular 17-24 sizes)
  //   (24,32):  0.780 - 0.738 - 0.039  = 0.003
  //   (32,128): remainder              = 0.018
  struct Band {
    std::vector<std::uint32_t> sizes;
    double mass;
  };
  std::vector<Band> bands;
  // Small non-powers, 1/size-biased (the Fig. 1 small-number preference).
  bands.push_back({{3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}, 0.049});
  // The 17..24 band dominates the non-power mass; round sizes (18, 20, 24)
  // get the bulk, as usual for hand-chosen job sizes.
  bands.push_back({{17, 18, 19, 20, 21, 22, 23, 24}, 0.225});
  bands.push_back({{25, 26, 27, 28, 29, 30, 31}, 0.003});
  bands.push_back({{33, 34, 35, 36, 40, 42, 44, 45, 48, 50, 52, 56,
                    60, 63, 65, 66, 68, 70, 72, 75, 80, 84, 96, 100},
                   0.018});

  auto band_weight = [](std::uint32_t v) {
    // Within a band: inverse-size bias plus a boost for round sizes.
    double w = 1.0 / static_cast<double>(v);
    if (v % 12 == 0 || v % 10 == 0) w *= 6.0;  // 12/20/24/30/40/60/... popular
    else if (v % 6 == 0 || v % 5 == 0) w *= 2.5;
    return w;
  };

  std::size_t non_power = 0;
  for (const auto& band : bands) {
    double total = 0.0;
    for (std::uint32_t v : band.sizes) total += band_weight(v);
    for (std::uint32_t v : band.sizes) {
      values.push_back(static_cast<double>(v));
      weights.push_back(band.mass * band_weight(v) / total);
      ++non_power;
    }
  }
  MCSIM_ASSERT(non_power == 50);
  return DiscreteDistribution(std::move(values), std::move(weights));
}

}  // namespace

const DiscreteDistribution& das_s_128() {
  static const DiscreteDistribution kDist = build_das_s_128();
  return kDist;
}

DiscreteDistribution das_s_64(double* removed_mass) {
  return das_s_128().truncate_above(64.0, removed_mass);
}

DistributionPtr das1_raw_service_times() {
  // Two-population model of the DAS1 log (Fig. 2): a dominant mass of short
  // interactive jobs (working-hours usage is capped at 15 minutes, so the
  // short population piles up below 900 s) plus a minority of long jobs run
  // outside working hours. Lognormal bodies are the standard fit for
  // supercomputer service times (Feitelson; Chiang & Vernon [10]).
  auto short_jobs = std::make_shared<LognormalDistribution>(
      LognormalDistribution::from_mean_cv(/*mean=*/110.0, /*cv=*/1.9));
  auto long_jobs = std::make_shared<LognormalDistribution>(
      LognormalDistribution::from_mean_cv(/*mean=*/2200.0, /*cv=*/1.4));
  return std::make_shared<MixtureDistribution>(
      std::vector<DistributionPtr>{short_jobs, long_jobs}, std::vector<double>{0.85, 0.15});
}

DistributionPtr das_t_900() {
  // "The distribution derived from the log of the DAS, cut off at 900
  // seconds": the raw model conditioned on [1, 900].
  static const DistributionPtr kDist = std::make_shared<TruncatedDistribution>(
      das1_raw_service_times(), 1.0, das::kServiceCutSeconds);
  return kDist;
}

std::vector<double> component_count_fractions(const DiscreteDistribution& sizes,
                                              std::uint32_t limit, std::uint32_t clusters) {
  std::vector<double> fractions(clusters, 0.0);
  const auto& values = sizes.values();
  const auto& probs = sizes.probabilities();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto size = static_cast<std::uint32_t>(values[i]);
    const std::uint32_t n = component_count(size, limit, clusters);
    fractions[n - 1] += probs[i];
  }
  return fractions;
}

double gross_net_ratio(const DiscreteDistribution& sizes, std::uint32_t limit,
                       std::uint32_t clusters, double extension_factor) {
  return mean_extended_size(sizes, limit, clusters, extension_factor) / sizes.mean();
}

double mean_extended_size(const DiscreteDistribution& sizes, std::uint32_t limit,
                          std::uint32_t clusters, double extension_factor) {
  MCSIM_REQUIRE(extension_factor >= 1.0, "extension factor must be >= 1");
  double weighted = 0.0;
  const auto& values = sizes.values();
  const auto& probs = sizes.probabilities();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto size = static_cast<std::uint32_t>(values[i]);
    const bool multi = component_count(size, limit, clusters) > 1;
    weighted += probs[i] * values[i] * (multi ? extension_factor : 1.0);
  }
  return weighted;
}

}  // namespace mcsim
