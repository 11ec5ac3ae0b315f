#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/batch_means.hpp"
#include "stats/percentile.hpp"
#include "stats_reference.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(BatchMeans, BatchesCompleteAtBatchSize) {
  BatchMeans bm(3);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}) bm.add(x);
  ASSERT_EQ(bm.completed_batches(), 2u);
  EXPECT_DOUBLE_EQ(bm.means()[0], 2.0);
  EXPECT_DOUBLE_EQ(bm.means()[1], 5.0);
}

TEST(BatchMeans, GrandMeanOverCompleteBatches) {
  BatchMeans bm(2);
  RunningStats raw;
  for (double x : {1.0, 3.0, 5.0, 7.0, 100.0}) {  // 100 in incomplete batch
    bm.add(x);
    raw.add(x);
  }
  EXPECT_DOUBLE_EQ(bm.grand_mean(raw), 4.0);
}

TEST(BatchMeans, GrandMeanFallsBackToRawMean) {
  BatchMeans bm(100);
  RunningStats raw;
  for (double x : {2.0, 4.0}) {
    bm.add(x);
    raw.add(x);
  }
  EXPECT_DOUBLE_EQ(bm.grand_mean(raw), 3.0);
}

TEST(BatchMeans, ConfidenceUsesBatchMeans) {
  BatchMeans bm(10);
  RunningStats raw;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform();
    bm.add(x);
    raw.add(x);
  }
  const auto ci = bm.confidence(raw);
  EXPECT_NEAR(ci.mean, 0.5, 0.05);
  EXPECT_GT(ci.halfwidth, 0.0);
  EXPECT_LT(ci.halfwidth, 0.1);
}

TEST(BatchMeans, WideCiForCorrelatedDataVsIid) {
  // A slowly-wandering series has batch means with larger spread than the
  // raw i.i.d. CI would suggest; the batch CI must be wider than the naive
  // raw CI computed from all observations.
  Rng rng(42);
  BatchMeans bm(50);
  double level = 0.0;
  RunningStats raw;
  for (int i = 0; i < 5000; ++i) {
    level = 0.999 * level + 0.05 * (rng.uniform() - 0.5);
    bm.add(level);
    raw.add(level);
  }
  EXPECT_GT(bm.confidence(raw).halfwidth, mean_confidence(raw).halfwidth);
}

TEST(BatchMeans, Lag1AutocorrelationNearZeroForIid) {
  Rng rng(5);
  BatchMeans bm(20);
  for (int i = 0; i < 4000; ++i) bm.add(rng.uniform());
  EXPECT_LT(std::fabs(bm.lag1_autocorrelation()), 0.25);
}

TEST(BatchMeans, ZeroBatchSizeThrows) { EXPECT_THROW(BatchMeans(0), std::invalid_argument); }

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile q(0.5);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.value(), 10.0);
  q.add(20.0);
  q.add(30.0);
  EXPECT_NEAR(q.value(), 20.0, 10.0);
}

TEST(P2Quantile, MedianOfUniform) {
  P2Quantile q(0.5);
  Rng rng(31);
  for (int i = 0; i < 100000; ++i) q.add(rng.uniform());
  EXPECT_NEAR(q.value(), 0.5, 0.02);
}

TEST(P2Quantile, P95OfUniform) {
  P2Quantile q(0.95);
  Rng rng(33);
  for (int i = 0; i < 100000; ++i) q.add(rng.uniform());
  EXPECT_NEAR(q.value(), 0.95, 0.02);
}

TEST(P2Quantile, P95OfExponential) {
  P2Quantile q(0.95);
  Rng rng(37);
  for (int i = 0; i < 200000; ++i) q.add(rng.exponential_mean(1.0));
  EXPECT_NEAR(q.value(), -std::log(0.05), 0.15);  // ~2.996
}

TEST(P2Quantile, InvalidQuantileThrows) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(ExactQuantile, InterpolatesLinearly) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 0.5), 2.5);
  EXPECT_NEAR(exact_quantile(sorted, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(ExactQuantile, SingleElement) {
  EXPECT_DOUBLE_EQ(exact_quantile({7.0}, 0.5), 7.0);
}

TEST(ExactQuantile, EmptyThrows) {
  EXPECT_THROW(exact_quantile({}, 0.5), std::invalid_argument);
}

TEST(P2Quantile, AgreesWithExactOnSkewedData) {
  Rng rng(77);
  P2Quantile p2(0.9);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    const double x = std::pow(rng.uniform(), 3.0);  // skewed toward 0
    p2.add(x);
    samples.push_back(x);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(p2.value(), exact_quantile(samples, 0.9), 0.02);
}

}  // namespace
}  // namespace mcsim
