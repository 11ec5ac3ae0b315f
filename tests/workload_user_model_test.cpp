#include "workload/user_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "trace/synthetic_log.hpp"
#include "stats/welford.hpp"
#include "trace/trace_stats.hpp"

namespace mcsim {
namespace {

TEST(UserWorkloadModel, SubmissionsAreTimeOrdered) {
  UserWorkloadModel model(UserModelConfig{}, 7);
  double last = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const auto submission = model.next();
    EXPECT_GE(submission.time, last);
    EXPECT_LT(submission.user, 20u);
    last = submission.time;
  }
}

TEST(UserWorkloadModel, DeterministicForSeed) {
  UserWorkloadModel a(UserModelConfig{}, 11);
  UserWorkloadModel b(UserModelConfig{}, 11);
  for (int i = 0; i < 1000; ++i) {
    const auto sa = a.next();
    const auto sb = b.next();
    EXPECT_DOUBLE_EQ(sa.time, sb.time);
    EXPECT_EQ(sa.user, sb.user);
  }
}

TEST(UserWorkloadModel, ActivityIsZipfSkewed) {
  UserModelConfig config;
  config.activity_skew = 1.0;
  UserWorkloadModel model(config, 13);
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 40000; ++i) ++counts[model.next().user];
  // User 0 must dominate user 10 clearly.
  EXPECT_GT(counts[0], 3 * counts[10]);
}

TEST(UserWorkloadModel, NoSkewMeansRoughlyEqualActivity) {
  UserModelConfig config;
  config.activity_skew = 0.0;
  config.num_users = 4;
  UserWorkloadModel model(config, 17);
  std::map<std::uint32_t, int> counts;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[model.next().user];
  for (const auto& [user, count] : counts) {
    EXPECT_NEAR(count / double(kN), 0.25, 0.04) << "user " << user;
  }
}

TEST(UserWorkloadModel, SessionsProduceBurstyInterarrivals) {
  // Within-session gaps (think times ~300 s) and between-session gaps
  // (hours) make the interarrival distribution of a single user bimodal:
  // many short gaps, few very long ones — far from exponential.
  UserModelConfig config;
  config.num_users = 1;
  config.activity_skew = 0.0;
  UserWorkloadModel model(config, 19);
  std::vector<double> gaps;
  double last = model.next().time;
  for (int i = 0; i < 20000; ++i) {
    const double t = model.next().time;
    gaps.push_back(t - last);
    last = t;
  }
  const auto short_gaps = std::count_if(gaps.begin(), gaps.end(),
                                        [](double g) { return g < 1800.0; });
  const auto long_gaps = std::count_if(gaps.begin(), gaps.end(),
                                       [](double g) { return g > 2.0 * 3600.0; });
  EXPECT_GT(short_gaps, gaps.size() / 2);  // most gaps are think times
  EXPECT_GT(long_gaps, 100);               // but real breaks exist
  // Mean session length ~8 -> roughly 1/8 of gaps are breaks.
  EXPECT_NEAR(static_cast<double>(long_gaps) / static_cast<double>(gaps.size()), 1.0 / 8.0,
              0.06);
}

TEST(UserWorkloadModel, MeanRateMatchesEmpirical) {
  UserModelConfig config;
  UserWorkloadModel model(config, 23);
  constexpr int kN = 50000;
  double last = 0.0;
  for (int i = 0; i < kN; ++i) last = model.next().time;
  EXPECT_NEAR(kN / last, model.mean_rate(), 0.15 * model.mean_rate());
}

TEST(UserWorkloadModel, InvalidConfigThrows) {
  UserModelConfig config;
  config.num_users = 0;
  EXPECT_THROW(UserWorkloadModel(config, 1), std::invalid_argument);
  config = UserModelConfig{};
  config.mean_session_jobs = 0.5;
  EXPECT_THROW(UserWorkloadModel(config, 1), std::invalid_argument);
}

TEST(SyntheticLogSessions, SessionModeProducesValidLog) {
  SyntheticLogConfig config;
  config.num_jobs = 5000;
  config.user_sessions = true;
  config.duration_seconds = 30.0 * 24 * 3600;
  config.seed = 3;
  const SwfTrace trace = generate_synthetic_das1_log(config);
  ASSERT_EQ(trace.records.size(), 5000u);
  const auto summary = summarize_trace(trace.records);
  EXPECT_EQ(summary.user_count, 20u);
  // Rescaled to the configured span.
  EXPECT_NEAR(trace.records.back().submit_time, config.duration_seconds,
              0.02 * config.duration_seconds);
  // Size distribution unchanged by the arrival model.
  EXPECT_NEAR(summary.power_of_two_fraction, 0.705, 0.03);
}

TEST(SyntheticLogSessions, SessionModeIsBurstierThanPoisson) {
  SyntheticLogConfig config;
  config.num_jobs = 8000;
  config.duration_seconds = 30.0 * 24 * 3600;
  config.seed = 5;
  const auto poisson = generate_synthetic_das1_log(config);
  config.user_sessions = true;
  const auto sessions = generate_synthetic_das1_log(config);

  auto interarrival_cv = [](const SwfTrace& trace) {
    RunningStats gaps;
    for (std::size_t i = 1; i < trace.records.size(); ++i) {
      gaps.add(trace.records[i].submit_time - trace.records[i - 1].submit_time);
    }
    return gaps.cv();
  };
  EXPECT_GT(interarrival_cv(sessions), interarrival_cv(poisson));
}

}  // namespace
}  // namespace mcsim
