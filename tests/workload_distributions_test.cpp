#include "workload/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "queueing.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

// ---- Parameterized moment check: every distribution's sample mean and
// variance must converge to its analytic mean()/variance(). ----

struct MomentCase {
  std::string name;
  DistributionPtr dist;
  double mean_tol;  // relative
  double var_tol;   // relative
};

class DistributionMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(DistributionMoments, SampleMomentsMatchAnalytic) {
  const auto& param = GetParam();
  Rng rng(123456);
  constexpr int kN = 400000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = param.dist->sample(rng);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, param.dist->mean(), param.mean_tol * std::max(1.0, param.dist->mean()))
      << param.name;
  EXPECT_NEAR(var, param.dist->variance(), param.var_tol * param.dist->variance())
      << param.name;
}

std::vector<MomentCase> moment_cases() {
  std::vector<MomentCase> cases;
  cases.push_back({"exponential", std::make_shared<ExponentialDistribution>(7.0), 0.01, 0.03});
  cases.push_back({"lognormal", std::make_shared<LognormalDistribution>(1.0, 0.5), 0.01, 0.05});
  cases.push_back({"lognormal_from_mean_cv",
                   std::make_shared<LognormalDistribution>(
                       LognormalDistribution::from_mean_cv(100.0, 1.5)),
                   0.02, 0.1});
  cases.push_back({"mixture",
                   std::make_shared<MixtureDistribution>(
                       std::vector<DistributionPtr>{
                           std::make_shared<ExponentialDistribution>(1.0),
                           std::make_shared<ExponentialDistribution>(50.0)},
                       std::vector<double>{0.8, 0.2}),
                   0.02, 0.05});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionMoments,
                         ::testing::ValuesIn(moment_cases()),
                         [](const ::testing::TestParamInfo<MomentCase>& param_info) {
                           return param_info.param.name;
                         });

// ---- Targeted behaviour tests. ----

TEST(LognormalFromMeanCv, HitsRequestedMoments) {
  const auto d = LognormalDistribution::from_mean_cv(200.0, 2.0);
  EXPECT_NEAR(d.mean(), 200.0, 1e-9);
  EXPECT_NEAR(d.cv(), 2.0, 1e-9);
}

TEST(Exponential, CvIsOne) {
  ExponentialDistribution d(42.0);
  EXPECT_NEAR(d.cv(), 1.0, 1e-12);
}

TEST(Truncated, SamplesStayInRange) {
  auto inner = std::make_shared<ExponentialDistribution>(500.0);
  TruncatedDistribution d(inner, 1.0, 900.0);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 900.0);
  }
}

TEST(Truncated, MeanBelowUntruncatedMeanForRightCut) {
  auto inner = std::make_shared<ExponentialDistribution>(500.0);
  TruncatedDistribution d(inner, 0.0, 900.0);
  EXPECT_LT(d.mean(), 500.0);
  EXPECT_GT(d.mean(), 0.0);
}

TEST(Truncated, MonteCarloMomentsAreDeterministic) {
  auto inner = std::make_shared<ExponentialDistribution>(100.0);
  TruncatedDistribution a(inner, 1.0, 900.0);
  TruncatedDistribution b(inner, 1.0, 900.0);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
}

TEST(Truncated, SampleMeanMatchesReportedMean) {
  auto inner = std::make_shared<LognormalDistribution>(
      LognormalDistribution::from_mean_cv(300.0, 2.0));
  TruncatedDistribution d(inner, 1.0, 900.0);
  Rng rng(7);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kN, d.mean(), 0.02 * d.mean());
}

TEST(Mixture, WeightsAreNormalized) {
  MixtureDistribution d(
      {std::make_shared<ExponentialDistribution>(1.0),
       std::make_shared<ExponentialDistribution>(3.0)},
      {2.0, 6.0});  // normalizes to 0.25/0.75
  EXPECT_NEAR(d.mean(), 0.25 * 1.0 + 0.75 * 3.0, 1e-12);
}

TEST(Mixture, MismatchedSizesThrow) {
  EXPECT_THROW(MixtureDistribution({std::make_shared<ExponentialDistribution>(1.0)},
                                   {0.5, 0.5}),
               std::invalid_argument);
}

TEST(Mixture, AllZeroWeightsThrow) {
  EXPECT_THROW(MixtureDistribution({std::make_shared<ExponentialDistribution>(1.0)}, {0.0}),
               std::invalid_argument);
  // No components means no weight at all.
  EXPECT_THROW(MixtureDistribution({}, {}), std::invalid_argument);
}

TEST(InvalidParameters, Throw) {
  EXPECT_THROW(ExponentialDistribution(0.0), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(TruncatedDistribution(nullptr, 0.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
