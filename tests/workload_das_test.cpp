#include "workload/das_workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {
namespace {

// ---- DAS-s-128: the reconstructed total-job-size distribution. ----

TEST(DasS128, MatchesTable1PowerOfTwoFractions) {
  const auto& dist = das_s_128();
  for (const auto& row : das1_power_of_two_fractions()) {
    EXPECT_NEAR(dist.probability_of(row.size), row.fraction, 1e-12)
        << "size " << row.size;
  }
}

TEST(DasS128, Table1SumsTo705Permille) {
  double total = 0.0;
  for (const auto& row : das1_power_of_two_fractions()) total += row.fraction;
  EXPECT_NEAR(total, 0.705, 1e-12);
}

TEST(DasS128, HasExactly58DistinctSizes) {
  // "The sizes of the job requests took 58 values in the interval [1,128]."
  EXPECT_EQ(das_s_128().support_size(), 58u);
}

TEST(DasS128, SupportInsideOneTo128) {
  EXPECT_GE(das_s_128().min_value(), 1.0);
  EXPECT_LE(das_s_128().max_value(), 128.0);
  EXPECT_DOUBLE_EQ(das_s_128().max_value(), 128.0);
}

TEST(DasS128, SizesAreIntegers) {
  for (double v : das_s_128().values()) {
    EXPECT_DOUBLE_EQ(v, std::floor(v));
  }
}

TEST(DasS128, MeanAndCvInPlausibleDasRange) {
  // The paper reports a mean around 22 and CV around 1.6 (digits garbled in
  // the scan); the reconstruction must land in the plausible band.
  const auto& dist = das_s_128();
  EXPECT_GT(dist.mean(), 18.0);
  EXPECT_LT(dist.mean(), 28.0);
  EXPECT_GT(dist.cv(), 0.9);
  EXPECT_LT(dist.cv(), 2.0);
}

TEST(DasS128, SmallSizesPreferredAmongNonPowers) {
  const auto& dist = das_s_128();
  EXPECT_GT(dist.probability_of(3.0), dist.probability_of(33.0));
  EXPECT_GT(dist.probability_of(5.0), dist.probability_of(45.0));
}

TEST(DasS128, Size64DominatesUpperRange) {
  // 19% of the jobs have size 64 — the single heaviest size (Sect. 3.3).
  const auto& dist = das_s_128();
  for (double v : dist.values()) {
    if (v != 64.0) {
      EXPECT_LT(dist.probability_of(v), 0.19 + 1e-12) << v;
    }
  }
}

// ---- DAS-s-64: the log cut at 64. ----

TEST(DasS64, ExcludesOnlyAFewPercent) {
  double removed = 0.0;
  (void)das_s_64(&removed);
  // Paper: cutting at 64 excludes only ~2% of the jobs.
  EXPECT_GT(removed, 0.005);
  EXPECT_LT(removed, 0.05);
}

TEST(DasS64, MaxSizeIs64) {
  EXPECT_DOUBLE_EQ(das_s_64().max_value(), 64.0);
}

TEST(DasS64, RenormalizedFractionsGrow) {
  double removed = 0.0;
  const auto cut = das_s_64(&removed);
  const auto& full = das_s_128();
  EXPECT_NEAR(cut.probability_of(64.0), full.probability_of(64.0) / (1.0 - removed), 1e-12);
}

TEST(DasS64, LowerMeanThanDasS128) {
  EXPECT_LT(das_s_64().mean(), das_s_128().mean());
}

// ---- DAS-t-900: the service-time distribution. ----

TEST(DasT900, SamplesBoundedByCut) {
  Rng rng(11);
  const auto dist = das_t_900();
  for (int i = 0; i < 50000; ++i) {
    const double t = dist->sample(rng);
    EXPECT_GE(t, 1.0);
    EXPECT_LE(t, 900.0);
  }
}

TEST(DasT900, MeanInPlausibleRange) {
  const auto dist = das_t_900();
  EXPECT_GT(dist->mean(), 100.0);
  EXPECT_LT(dist->mean(), 250.0);
}

TEST(DasT900, HighVariability) {
  EXPECT_GT(das_t_900()->cv(), 1.0);
}

TEST(Das1RawServiceTimes, MostJobsUnder15Minutes) {
  // The paper: the bulk of recorded jobs ran for less than 15 minutes
  // (working-hours limit). The raw model must put most mass below 900 s.
  Rng rng(13);
  const auto dist = das1_raw_service_times();
  int under = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (dist->sample(rng) < 900.0) ++under;
  }
  const double fraction = static_cast<double>(under) / kN;
  EXPECT_GT(fraction, 0.75);
  EXPECT_LT(fraction, 0.97);
}

// ---- Component-count fractions (Table 2) and multi-component shares. ----

TEST(ComponentFractions, SumToOneForEveryLimit) {
  for (std::uint32_t limit : das::kComponentLimits) {
    const auto fractions = component_count_fractions(das_s_128(), limit, 4);
    ASSERT_EQ(fractions.size(), 4u);
    double total = 0.0;
    for (double f : fractions) total += f;
    EXPECT_NEAR(total, 1.0, 1e-9) << "limit " << limit;
  }
}

TEST(ComponentFractions, SingleComponentShareGrowsWithLimit) {
  // Table 2: limit 16 -> 0.513 single, 24 -> 0.738, 32 -> 0.780.
  const double f16 = component_count_fractions(das_s_128(), 16, 4)[0];
  const double f24 = component_count_fractions(das_s_128(), 24, 4)[0];
  const double f32 = component_count_fractions(das_s_128(), 32, 4)[0];
  EXPECT_LT(f16, f24);
  EXPECT_LT(f24, f32);
  // The reconstruction should land near the paper's Table 2 column 1.
  EXPECT_NEAR(f16, 0.513, 0.08);
  EXPECT_NEAR(f24, 0.738, 0.08);
  EXPECT_NEAR(f32, 0.780, 0.08);
}

TEST(ComponentFractions, Limit16HasManyMultiComponentJobs) {
  // Sect. 3.1.1: ~49% multi-component at limit 16, far fewer at 24/32.
  // Multi-component = everything but the one-component column.
  const auto multi = [](std::uint32_t limit) {
    return 1.0 - component_count_fractions(das_s_128(), limit, 4)[0];
  };
  const double multi16 = multi(16);
  const double multi24 = multi(24);
  const double multi32 = multi(32);
  EXPECT_NEAR(multi16, 0.487, 0.08);
  EXPECT_GT(multi16, multi24);
  EXPECT_GT(multi24, multi32);
}

// ---- Gross/net utilization ratio (Sect. 4 closed form). ----

TEST(GrossNetRatio, OneWhenNoExtension) {
  EXPECT_DOUBLE_EQ(gross_net_ratio(das_s_128(), 16, 4, 1.0), 1.0);
}

TEST(GrossNetRatio, GrowsAsLimitShrinks) {
  // More multi-component jobs -> more extended work -> larger ratio.
  const double r16 = gross_net_ratio(das_s_128(), 16, 4, 1.25);
  const double r24 = gross_net_ratio(das_s_128(), 24, 4, 1.25);
  const double r32 = gross_net_ratio(das_s_128(), 32, 4, 1.25);
  EXPECT_GT(r16, r24);
  EXPECT_GT(r24, r32);
  EXPECT_GT(r32, 1.0);
  EXPECT_LT(r16, 1.25);
}

TEST(GrossNetRatio, MatchesDirectExpectation) {
  // Independent recomputation: E[size * ext(size)] / E[size].
  const auto& dist = das_s_128();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < dist.values().size(); ++i) {
    const double v = dist.values()[i];
    const double p = dist.probabilities()[i];
    const bool multi = component_count(static_cast<std::uint32_t>(v), 24, 4) > 1;
    num += p * v * (multi ? 1.25 : 1.0);
    den += p * v;
  }
  EXPECT_NEAR(gross_net_ratio(dist, 24, 4, 1.25), num / den, 1e-12);
}

TEST(MeanExtendedSize, BoundsRespected) {
  const auto& dist = das_s_128();
  for (std::uint32_t limit : das::kComponentLimits) {
    const double extended = mean_extended_size(dist, limit, 4, 1.25);
    EXPECT_GE(extended, dist.mean());
    EXPECT_LE(extended, dist.mean() * 1.25);
  }
}

TEST(MeanExtendedSize, InvalidExtensionThrows) {
  EXPECT_THROW(mean_extended_size(das_s_128(), 16, 4, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
