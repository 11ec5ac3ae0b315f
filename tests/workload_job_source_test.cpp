// The JobSource in-place contract (workload/job_source.hpp): the engine
// hands a source a recycled pooled job's spec, so every draw must
// overwrite every field. Each source here fills one spec that is refilled
// with stale data before every draw, and a twin source fills a fresh
// JobSpec; the two sequences must match field for field, so recycling can
// never leak a previous occupant's field into a new arrival.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "workload/das_workload.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_workload.hpp"
#include "workload/workload.hpp"

namespace mcsim {
namespace {

constexpr int kDraws = 3000;

/// A spec full of values no source would produce for the test inputs.
void make_stale(JobSpec& spec) {
  spec.id = 987654321;
  spec.arrival_time = 1e12;
  spec.total_size = 4096;
  spec.request_type = RequestType::kOrdered;
  spec.components.assign({1024, 1024, 1024, 1024});
  spec.ordered_clusters.assign({3, 2, 1, 0});
  spec.service_time = 1e9;
  spec.gross_service_time = 2e9;
  spec.origin_queue = 3;
  spec.wide_area = true;
}

/// Every JobSpec field; extend it when JobSpec grows one.
void expect_same_spec(const JobSpec& got, const JobSpec& fresh) {
  EXPECT_EQ(got.id, fresh.id);
  EXPECT_EQ(got.arrival_time, fresh.arrival_time);
  EXPECT_EQ(got.total_size, fresh.total_size);
  EXPECT_EQ(got.request_type, fresh.request_type);
  EXPECT_EQ(got.components, fresh.components);
  EXPECT_EQ(got.ordered_clusters, fresh.ordered_clusters);
  EXPECT_EQ(got.service_time, fresh.service_time);
  EXPECT_EQ(got.gross_service_time, fresh.gross_service_time);
  EXPECT_EQ(got.origin_queue, fresh.origin_queue);
  EXPECT_EQ(got.wide_area, fresh.wide_area);
}

// -- synthetic generator -------------------------------------------------

WorkloadConfig synthetic_config(RequestType type, bool split_jobs) {
  WorkloadConfig config;
  config.size_distribution = das_s_128();
  config.service_distribution = das_t_900();
  config.arrival_rate = 0.05;
  config.request_type = type;
  config.split_jobs = split_jobs;
  return config;
}

class GeneratorInPlace
    : public ::testing::TestWithParam<std::pair<RequestType, bool>> {};

TEST_P(GeneratorInPlace, StaleSpecMatchesFreshDraw) {
  const auto [type, split_jobs] = GetParam();
  const WorkloadConfig config = synthetic_config(type, split_jobs);
  WorkloadGenerator recycled(config, 11);
  WorkloadGenerator fresh(config, 11);
  JobSpec spec;
  for (int i = 0; i < kDraws; ++i) {
    make_stale(spec);
    recycled.next_into(spec);
    JobSpec expected;
    fresh.next_into(expected);
    SCOPED_TRACE(i);
    expect_same_spec(spec, expected);
  }
  // The constant-backlog driver's body-only draws obey the same contract.
  for (int i = 0; i < kDraws; ++i) {
    make_stale(spec);
    recycled.next_body_into(spec);
    SCOPED_TRACE(i);
    expect_same_spec(spec, fresh.next_body());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RequestTypes, GeneratorInPlace,
    ::testing::Values(std::pair{RequestType::kUnordered, true},
                      std::pair{RequestType::kOrdered, true},
                      std::pair{RequestType::kFlexible, true},
                      std::pair{RequestType::kUnordered, false}),
    [](const ::testing::TestParamInfo<std::pair<RequestType, bool>>& param) {
      return param.param.second ? std::string(request_type_name(param.param.first))
                                : std::string("total");
    });

// -- trace replay --------------------------------------------------------

/// Slightly disordered records with every size class, a few unusable ones
/// mixed in (the streaming filter skips them).
std::vector<TraceRecord> trace_records() {
  Rng rng(5);
  std::vector<TraceRecord> records;
  double submit = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    TraceRecord rec;
    rec.job_id = static_cast<std::uint64_t>(i);
    submit += rng.uniform(0.0, 20.0);
    rec.submit_time = submit;
    rec.run_time = i % 97 == 0 ? 0.0 : rng.uniform(1.0, 5000.0);
    rec.processors = 1 + static_cast<std::uint32_t>(rng.uniform_int(128));
    rec.user_id = static_cast<std::uint32_t>(rng.uniform_int(40));
    records.push_back(rec);
  }
  for (std::size_t i = 1; i + 1 < records.size(); i += 7) {
    std::swap(records[i], records[i + 1]);
  }
  return records;
}

class VectorSource final : public TraceRecordSource {
 public:
  explicit VectorSource(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  bool next(TraceRecord& out) override {
    if (next_ >= records_.size()) return false;
    out = records_[next_++];
    return true;
  }

 private:
  std::vector<TraceRecord> records_;
  std::size_t next_ = 0;
};

std::shared_ptr<const TraceWorkloadConfig> trace_config(bool streaming, bool split_jobs) {
  auto config = std::make_shared<TraceWorkloadConfig>();
  const std::vector<TraceRecord> records = trace_records();
  if (streaming) {
    VectorSource counter(records);
    config->streamed_usable_records = summarize_trace_source(counter).usable_records;
    config->open_source = [records]() { return std::make_unique<VectorSource>(records); };
  } else {
    config->records = usable_trace_records(records);
  }
  config->arrival_scale = 0.75;
  config->split_jobs = split_jobs;
  return config;
}

class TraceInPlace : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(TraceInPlace, StaleSpecMatchesFreshDraw) {
  const auto [streaming, split_jobs] = GetParam();
  const auto config = trace_config(streaming, split_jobs);
  TraceWorkload recycled(config);
  TraceWorkload fresh(config);
  JobSpec spec;
  std::uint64_t jobs = 0;
  while (true) {
    make_stale(spec);
    JobSpec expected;
    const bool got_one = recycled.next(spec);
    ASSERT_EQ(got_one, fresh.next(expected));
    if (!got_one) break;
    SCOPED_TRACE(jobs);
    expect_same_spec(spec, expected);
    ++jobs;
  }
  EXPECT_EQ(jobs, config->job_count());
  // A dry source leaves `out` untouched.
  EXPECT_EQ(spec.id, 987654321u);
}

INSTANTIATE_TEST_SUITE_P(
    DeliveryModes, TraceInPlace,
    ::testing::Values(std::pair{true, true}, std::pair{true, false},
                      std::pair{false, true}, std::pair{false, false}),
    [](const ::testing::TestParamInfo<std::pair<bool, bool>>& param) {
      return std::string(param.param.first ? "Streaming" : "InMemory") +
             (param.param.second ? "Split" : "Total");
    });

}  // namespace
}  // namespace mcsim
