#include "queueing.hpp"

#include <gtest/gtest.h>

namespace mcsim::queueing {
namespace {

TEST(ErlangB, KnownValues) {
  // Classic table values.
  EXPECT_NEAR(erlang_b(1, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(erlang_b(2, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(erlang_b(5, 3.0), 0.1101, 5e-4);
  EXPECT_NEAR(erlang_b(10, 7.0), 0.0787, 5e-4);
}

TEST(ErlangB, ZeroLoadNeverBlocks) { EXPECT_DOUBLE_EQ(erlang_b(4, 0.0), 0.0); }

TEST(ErlangB, MonotoneInLoad) {
  EXPECT_LT(erlang_b(4, 1.0), erlang_b(4, 2.0));
  EXPECT_LT(erlang_b(4, 2.0), erlang_b(4, 4.0));
}

TEST(ErlangB, MonotoneInServers) {
  EXPECT_GT(erlang_b(2, 2.0), erlang_b(4, 2.0));
}

TEST(ErlangC, KnownValues) {
  // M/M/1: P(wait) = rho.
  EXPECT_NEAR(erlang_c(1, 0.5), 0.5, 1e-12);
  // M/M/2 with a = 1: C = 1/3.
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ErlangC, RequiresStability) {
  EXPECT_THROW(erlang_c(2, 2.0), std::invalid_argument);
}

TEST(MM1, ResponseFormula) {
  EXPECT_DOUBLE_EQ(mm1_mean_response(0.5, 1.0), 2.0);
  EXPECT_THROW(mm1_mean_response(1.0, 1.0), std::invalid_argument);
}

TEST(MMc, ReducesToMM1) {
  EXPECT_NEAR(mmc_mean_response(1, 0.5, 1.0), mm1_mean_response(0.5, 1.0), 1e-12);
  EXPECT_NEAR(mmc_mean_wait(1, 0.5, 1.0), 1.0, 1e-12);
}

TEST(MMc, TwoServerKnownValue) {
  // lambda = 1, mu = 1, c = 2: W = C(2,1)/(2*1-1) = 1/3.
  EXPECT_NEAR(mmc_mean_wait(2, 1.0, 1.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mmc_mean_response(2, 1.0, 1.0), 4.0 / 3.0, 1e-12);
}

TEST(MMc, LittlesLaw) {
  const double lambda = 3.0, mu = 1.0;
  EXPECT_NEAR(mmc_mean_in_system(5, lambda, mu),
              lambda * mmc_mean_response(5, lambda, mu), 1e-12);
}

TEST(MG1, ReducesToMM1ForExponentialService) {
  // Exponential service: variance = mean^2; PK gives the M/M/1 wait.
  const double lambda = 0.5, mean = 1.0;
  EXPECT_NEAR(mg1_mean_wait(lambda, mean, mean * mean), 1.0, 1e-12);
  EXPECT_NEAR(mg1_mean_response(lambda, mean, mean * mean), 2.0, 1e-12);
}

TEST(MG1, DeterministicServiceHalvesTheWait) {
  const double lambda = 0.5, mean = 1.0;
  EXPECT_NEAR(mg1_mean_wait(lambda, mean, 0.0), 0.5, 1e-12);
}

TEST(MG1, VarianceIncreasesWait) {
  EXPECT_LT(mg1_mean_wait(0.5, 1.0, 1.0), mg1_mean_wait(0.5, 1.0, 4.0));
}

TEST(MG1, RequiresStability) {
  EXPECT_THROW(mg1_mean_wait(2.0, 1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim::queueing
