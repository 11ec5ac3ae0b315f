// SimulationConfig::validate: every way a config can be internally
// inconsistent must fail loudly at construction, never silently misbehave.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

// A known-good multicluster config to break one field at a time.
SimulationConfig good_config() {
  return testing::paper_point(PolicyKind::kLS, 0.4, 1000, /*seed=*/3);
}

void expect_invalid(const SimulationConfig& config, const char* what) {
  EXPECT_THROW(config.validate(), std::invalid_argument) << what;
  EXPECT_THROW(MulticlusterSimulation{config}, std::invalid_argument) << what;
}

TEST(ConfigValidation, GoodConfigPasses) {
  EXPECT_NO_THROW(good_config().validate());
  EXPECT_NO_THROW(MulticlusterSimulation{good_config()});
}

TEST(ConfigValidation, RejectsEmptyClusterList) {
  auto config = good_config();
  config.cluster_sizes.clear();
  expect_invalid(config, "no clusters");
}

TEST(ConfigValidation, RejectsZeroSizeCluster) {
  auto config = good_config();
  config.cluster_sizes[2] = 0;
  expect_invalid(config, "zero-size cluster");
}

TEST(ConfigValidation, RejectsMismatchedSpeeds) {
  auto config = good_config();
  config.cluster_speeds = {1.0, 1.0};  // 2 speeds for 4 clusters
  expect_invalid(config, "speeds/sizes mismatch");
}

TEST(ConfigValidation, RejectsNonPositiveSpeed) {
  auto config = good_config();
  config.cluster_speeds = {1.0, 1.0, 0.0, 1.0};
  expect_invalid(config, "zero speed");
}

TEST(ConfigValidation, AcceptsAlignedSpeeds) {
  auto config = good_config();
  config.cluster_speeds = {1.0, 0.5, 2.0, 1.0};
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidation, RejectsZeroJobs) {
  auto config = good_config();
  config.total_jobs = 0;
  expect_invalid(config, "zero jobs");
}

TEST(ConfigValidation, RejectsWarmupFractionOutOfRange) {
  auto config = good_config();
  config.warmup_fraction = 1.0;
  expect_invalid(config, "warmup == 1");
  config.warmup_fraction = -0.1;
  expect_invalid(config, "negative warmup");
}

TEST(ConfigValidation, RejectsZeroBatchCount) {
  auto config = good_config();
  config.batch_count = 0;
  expect_invalid(config, "zero batches");
}

TEST(ConfigValidation, RejectsNonPositiveArrivalRate) {
  auto config = good_config();
  config.workload.arrival_rate = 0.0;
  expect_invalid(config, "zero arrival rate");
}

TEST(ConfigValidation, RejectsExtensionFactorBelowOne) {
  auto config = good_config();
  config.workload.extension_factor = 0.9;
  expect_invalid(config, "extension < 1");
}

TEST(ConfigValidation, RejectsBacklogFractionOutOfRange) {
  auto config = good_config();
  config.instability_backlog_fraction = 1.5;
  expect_invalid(config, "backlog fraction > 1");
}

TEST(ConfigValidation, RejectsScOnMulticluster) {
  auto config = good_config();
  config.policy = PolicyKind::kSC;  // 4 clusters + split jobs: doubly wrong
  expect_invalid(config, "SC needs one cluster");
}

TEST(ConfigValidation, RejectsWorkloadClusterMismatch) {
  auto config = good_config();
  config.workload.num_clusters = 3;  // system has 4
  expect_invalid(config, "workload/system cluster mismatch");
}

TEST(ConfigValidation, ErrorMessageNamesTheField) {
  auto config = good_config();
  config.cluster_speeds = {1.0};
  try {
    config.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cluster_speeds"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace mcsim
