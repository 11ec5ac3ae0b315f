// Allocation regression test for the job lifecycle (docs/PERFORMANCE.md,
// "Allocation-free job lifecycle"): arrival, queueing, placement attempts,
// start, departure and recycling must not touch the global allocator once
// the pool and the scratch buffers are warm.
//
// Method: this TU replaces global operator new with a counting version
// (as core_queue_test does) and runs the same configuration at N and 2N
// jobs. Setup and result assembly cost the same in both runs, so the
// difference is what the extra N jobs cost; it must stay below N/20. What
// remains is container growth: the pool and each pooled job's vectors grow
// with the run's peak population, and a FIFO JobQueue's std::deque takes
// one new 512-byte block per 64 jobs (~0.016 per job).
//
// Scope: the paper's four policies on both job sources, the ordered and
// flexible request types, and the constant-backlog saturation driver. The
// EASY and conservative backfill stages are outside the bound: each
// scheduling round still copies the running-job ledger (EASY's
// head_reservation sorts a copy; conservative's AvailabilityProfile::reset
// builds a fresh end-time list), so they allocate per round rather than per
// job. Aggressive backfilling keeps no per-round state and is pinned here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/engine.hpp"
#include "core/saturation.hpp"
#include "exp/scenario_spec.hpp"
#include "workload/trace_workload.hpp"

namespace {
std::size_t g_allocation_count = 0;
}  // namespace

// Out of line so no caller sees operator new and free() paired (GCC's
// -Wmismatched-new-delete would flag every inlined delete otherwise).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace mcsim {
namespace {

constexpr std::uint64_t kJobs = 4000;
constexpr double kUtilization = 0.5;
constexpr std::uint64_t kSeed = 7;

exp::ScenarioSpec spec_for(PolicyKind policy) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.seed = kSeed;
  return spec;
}

SimulationConfig config_for(exp::ScenarioSpec spec, std::uint64_t jobs) {
  spec.sim_jobs = jobs;
  return exp::to_simulation_config(spec, kUtilization);
}

/// The same synthetic stream as an in-memory trace: one record per draw
/// (submit, gross run time, size, queue as user), replayed unscaled.
SimulationConfig trace_config_for(PolicyKind policy, std::uint64_t jobs) {
  SimulationConfig config = config_for(spec_for(policy), jobs);
  WorkloadGenerator generator(config.workload, kSeed);
  auto trace = std::make_shared<TraceWorkloadConfig>();
  trace->records.reserve(jobs);
  for (std::uint64_t i = 0; i < jobs; ++i) {
    const JobSpec job = generator.next();
    TraceRecord record;
    record.job_id = i;
    record.submit_time = job.arrival_time;
    record.run_time = job.gross_service_time;
    record.processors = job.total_size;
    record.user_id = job.origin_queue;
    trace->records.push_back(record);
  }
  trace->component_limit = config.workload.component_limit;
  trace->num_clusters = config.workload.num_clusters;
  config.trace_workload = std::move(trace);
  return config;
}

/// Global allocations made by one whole engine run (construction included).
std::int64_t allocations_for(const SimulationConfig& config) {
  const std::size_t before = g_allocation_count;
  const SimulationResult result = run_simulation(config);
  const std::size_t after = g_allocation_count;
  EXPECT_FALSE(result.unstable);
  EXPECT_EQ(result.completed_jobs, config.total_jobs);
  return static_cast<std::int64_t>(after - before);
}

void expect_allocation_free(const SimulationConfig& n_jobs,
                            const SimulationConfig& twice_the_jobs) {
  ASSERT_EQ(twice_the_jobs.total_jobs, 2 * n_jobs.total_jobs);
  const std::int64_t base = allocations_for(n_jobs);
  const std::int64_t doubled = allocations_for(twice_the_jobs);
  const auto extra_jobs = static_cast<std::int64_t>(n_jobs.total_jobs);
  EXPECT_LT(doubled - base, extra_jobs / 20)
      << "the extra " << extra_jobs << " jobs cost " << (doubled - base)
      << " allocations (" << base << " for the first " << extra_jobs << ")";
}

class SyntheticLifecycle : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SyntheticLifecycle, ExtraJobsCostNoAllocations) {
  const exp::ScenarioSpec spec = spec_for(GetParam());
  expect_allocation_free(config_for(spec, kJobs), config_for(spec, 2 * kJobs));
}

INSTANTIATE_TEST_SUITE_P(PaperPolicies, SyntheticLifecycle,
                         ::testing::Values(PolicyKind::kGS, PolicyKind::kLS,
                                           PolicyKind::kLP, PolicyKind::kSC),
                         [](const ::testing::TestParamInfo<PolicyKind>& param) {
                           return policy_name(param.param);
                         });

class TraceLifecycle : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(TraceLifecycle, ExtraJobsCostNoAllocations) {
  expect_allocation_free(trace_config_for(GetParam(), kJobs),
                         trace_config_for(GetParam(), 2 * kJobs));
}

INSTANTIATE_TEST_SUITE_P(InMemoryTrace, TraceLifecycle,
                         ::testing::Values(PolicyKind::kGS, PolicyKind::kLS),
                         [](const ::testing::TestParamInfo<PolicyKind>& param) {
                           return policy_name(param.param);
                         });

TEST(RequestTypeLifecycle, OrderedAndFlexibleCostNoAllocations) {
  for (const RequestType type : {RequestType::kOrdered, RequestType::kFlexible}) {
    SCOPED_TRACE(request_type_name(type));
    exp::ScenarioSpec spec = spec_for(PolicyKind::kGS);
    spec.request_type = type;
    spec.utilization = 0.4;
    expect_allocation_free(config_for(spec, kJobs), config_for(spec, 2 * kJobs));
  }
}

TEST(BackfillLifecycle, AggressiveCostsNoAllocations) {
  exp::ScenarioSpec spec = spec_for(PolicyKind::kGS);
  spec.backfill = BackfillMode::kAggressive;
  expect_allocation_free(config_for(spec, kJobs), config_for(spec, 2 * kJobs));
}

TEST(SaturationLifecycle, RefillsCostNoAllocations) {
  exp::ScenarioSpec spec = spec_for(PolicyKind::kGS);
  spec.mode = exp::RunMode::kSaturation;
  const auto allocations = [&spec](std::uint64_t completions) {
    spec.saturation_completions = completions;
    const SaturationConfig config = exp::to_saturation_config(spec);
    const std::size_t before = g_allocation_count;
    const SaturationResult result = run_saturation(config);
    const std::size_t after = g_allocation_count;
    EXPECT_EQ(result.completions, completions);
    return static_cast<std::int64_t>(after - before);
  };
  const std::int64_t base = allocations(kJobs);
  const std::int64_t doubled = allocations(2 * kJobs);
  EXPECT_LT(doubled - base, static_cast<std::int64_t>(kJobs / 20));
}

}  // namespace
}  // namespace mcsim
