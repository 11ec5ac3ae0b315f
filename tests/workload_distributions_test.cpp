#include "workload/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

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
  if (param.dist->variance() > 0.0) {
    EXPECT_NEAR(var, param.dist->variance(), param.var_tol * param.dist->variance())
        << param.name;
  } else {
    EXPECT_NEAR(var, 0.0, 1e-9) << param.name;
  }
}

std::vector<MomentCase> moment_cases() {
  std::vector<MomentCase> cases;
  cases.push_back({"deterministic", std::make_shared<DeterministicDistribution>(5.0), 1e-12, 0.0});
  cases.push_back({"uniform", std::make_shared<UniformRealDistribution>(2.0, 10.0), 0.01, 0.02});
  cases.push_back({"exponential", std::make_shared<ExponentialDistribution>(7.0), 0.01, 0.03});
  cases.push_back(
      {"hyperexp", std::make_shared<HyperExponentialDistribution>(0.7, 1.0, 20.0), 0.02, 0.05});
  cases.push_back({"lognormal", std::make_shared<LognormalDistribution>(1.0, 0.5), 0.01, 0.05});
  cases.push_back({"lognormal_from_mean_cv",
                   std::make_shared<LognormalDistribution>(
                       LognormalDistribution::from_mean_cv(100.0, 1.5)),
                   0.02, 0.1});
  cases.push_back({"weibull", std::make_shared<WeibullDistribution>(1.5, 3.0), 0.01, 0.05});
  cases.push_back(
      {"bounded_pareto", std::make_shared<BoundedParetoDistribution>(1.0, 1000.0, 1.2), 0.03, 0.2});
  cases.push_back({"mixture",
                   std::make_shared<MixtureDistribution>(
                       std::vector<DistributionPtr>{
                           std::make_shared<ExponentialDistribution>(1.0),
                           std::make_shared<ExponentialDistribution>(50.0)},
                       std::vector<double>{0.8, 0.2}),
                   0.02, 0.05});
  cases.push_back({"scaled",
                   std::make_shared<ScaledDistribution>(
                       std::make_shared<ExponentialDistribution>(4.0), 1.25),
                   0.01, 0.03});
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

TEST(HyperExponential, CvExceedsOne) {
  HyperExponentialDistribution d(0.9, 1.0, 100.0);
  EXPECT_GT(d.cv(), 1.0);
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
      {std::make_shared<DeterministicDistribution>(1.0),
       std::make_shared<DeterministicDistribution>(3.0)},
      {2.0, 6.0});  // normalizes to 0.25/0.75
  EXPECT_NEAR(d.mean(), 0.25 * 1.0 + 0.75 * 3.0, 1e-12);
}

TEST(Mixture, MismatchedSizesThrow) {
  EXPECT_THROW(MixtureDistribution({std::make_shared<DeterministicDistribution>(1.0)},
                                   {0.5, 0.5}),
               std::invalid_argument);
}

TEST(Mixture, AllZeroWeightsThrow) {
  EXPECT_THROW(MixtureDistribution({std::make_shared<DeterministicDistribution>(1.0)}, {0.0}),
               std::invalid_argument);
}

TEST(Scaled, ScalesSamplesAndMoments) {
  auto inner = std::make_shared<DeterministicDistribution>(4.0);
  ScaledDistribution d(inner, 1.25);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.sample(rng), 5.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(BoundedPareto, SamplesStayInRange) {
  BoundedParetoDistribution d(2.0, 64.0, 1.1);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 64.0);
  }
}

TEST(InvalidParameters, Throw) {
  EXPECT_THROW(ExponentialDistribution(0.0), std::invalid_argument);
  EXPECT_THROW(UniformRealDistribution(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(HyperExponentialDistribution(1.5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(WeibullDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ScaledDistribution(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedDistribution(nullptr, 0.0, 1.0), std::invalid_argument);
}

TEST(Describe, MentionsTheFamily) {
  EXPECT_NE(ExponentialDistribution(2.0).describe().find("Exponential"), std::string::npos);
  EXPECT_NE(LognormalDistribution(1.0, 1.0).describe().find("Lognormal"), std::string::npos);
  EXPECT_NE(WeibullDistribution(1.0, 1.0).describe().find("Weibull"), std::string::npos);
}

TEST(ErlangDistribution, LowVariability) {
  ErlangDistribution d(4, 25.0);
  EXPECT_DOUBLE_EQ(d.mean(), 100.0);
  EXPECT_DOUBLE_EQ(d.cv(), 0.5);  // 1/sqrt(4)
  Rng rng(1);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kN, 100.0, 1.0);
}

TEST(ErlangDistribution, OnePhaseIsExponential) {
  ErlangDistribution erlang(1, 10.0);
  EXPECT_NEAR(erlang.cv(), 1.0, 1e-12);
}

TEST(GammaDistribution, MomentsMatch) {
  GammaDistribution d(2.5, 4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 10.0);
  EXPECT_DOUBLE_EQ(d.variance(), 40.0);
  Rng rng(2);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) {
    const double x = d.sample(rng);
    EXPECT_GT(x, 0.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sumsq / kN - mean * mean, 40.0, 1.5);
}

TEST(GammaDistribution, ShapeBelowOne) {
  GammaDistribution d(0.5, 2.0);
  Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kN, 1.0, 0.03);
}

TEST(ShiftedDistribution, AddsConstant) {
  auto inner = std::make_shared<ExponentialDistribution>(5.0);
  ShiftedDistribution d(inner, 10.0);
  EXPECT_DOUBLE_EQ(d.mean(), 15.0);
  EXPECT_DOUBLE_EQ(d.variance(), 25.0);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(d.sample(rng), 10.0);
}

TEST(NewDistributions, InvalidParametersThrow) {
  EXPECT_THROW(ErlangDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ErlangDistribution(2, 0.0), std::invalid_argument);
  EXPECT_THROW(GammaDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ShiftedDistribution(nullptr, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
