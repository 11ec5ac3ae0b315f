// JobPool contract tests: slab-stable addresses, LIFO recycling, reset
// semantics, and the determinism consequence the engine relies on — a run
// that recycles jobs produces bit-identical results when repeated, because
// nothing anywhere orders by Job pointer value.
#include "core/job_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/engine.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

/// Acquire a job and fill its spec the way a job source does: in place.
Job* acquire_with_id(JobPool& pool, std::uint64_t id) {
  Job* job = pool.acquire();
  job->spec.id = id;
  job->spec.components.assign(1, 4);
  job->spec.total_size = 4;
  job->spec.service_time = 10.0;
  job->spec.gross_service_time = 10.0;
  return job;
}

TEST(JobPool, AcquireHandsOutDistinctStableAddresses) {
  JobPool pool;
  std::set<Job*> seen;
  std::vector<Job*> jobs;
  // Cross several slab boundaries; nothing may alias and nothing may move.
  for (std::uint64_t i = 0; i < 3 * JobPool::kSlabCapacity + 7; ++i) {
    Job* job = acquire_with_id(pool, i);
    EXPECT_TRUE(seen.insert(job).second) << "aliased live job at i=" << i;
    jobs.push_back(job);
  }
  EXPECT_EQ(pool.slab_count(), 4u);
  EXPECT_EQ(pool.live(), jobs.size());
  // Addresses handed out earlier are still valid and hold their spec.
  for (std::uint64_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i]->spec.id, i);
  }
}

TEST(JobPool, ReleaseRecyclesLastInFirstOut) {
  JobPool pool;
  Job* first = acquire_with_id(pool, 1);
  Job* second = acquire_with_id(pool, 2);
  pool.release(first);
  pool.release(second);
  // LIFO: the most recently released slot is reused first. This order is a
  // pure function of the (deterministic) departure order, which is what
  // makes recycled addresses replay identically run over run.
  EXPECT_EQ(acquire_with_id(pool, 3), second);
  EXPECT_EQ(acquire_with_id(pool, 4), first);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.total_acquired(), 4u);
}

TEST(JobPool, RecycledJobIsFullyReset) {
  JobPool pool;
  Job* job = acquire_with_id(pool, 1);
  job->spec.components.assign({2, 1, 1});
  job->spec.ordered_clusters.assign({3, 0, 1});
  job->allocation.push_back(ComponentPlacement{0, 4});
  job->start_time = 12.5;
  job->queue_class = QueueClass::kLocal;
  job->considered = true;
  const std::size_t capacity = job->allocation.capacity();
  const std::size_t components_capacity = job->spec.components.capacity();
  const std::size_t clusters_capacity = job->spec.ordered_clusters.capacity();
  pool.release(job);

  Job* recycled = pool.acquire();
  ASSERT_EQ(recycled, job);
  EXPECT_TRUE(recycled->allocation.empty());
  // The run state is cleared but every buffer is kept: the job source
  // refills the spec in place and placement writes into the allocation
  // without touching the allocator.
  EXPECT_GE(recycled->allocation.capacity(), capacity);
  EXPECT_GE(recycled->spec.components.capacity(), components_capacity);
  EXPECT_GE(recycled->spec.ordered_clusters.capacity(), clusters_capacity);
  EXPECT_FALSE(recycled->started());
  EXPECT_EQ(recycled->queue_class, QueueClass::kGlobal);
  EXPECT_FALSE(recycled->considered);
}

TEST(JobPool, CapacityCountsConstructedJobs) {
  JobPool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  Job* job = acquire_with_id(pool, 1);
  EXPECT_EQ(pool.capacity(), 1u);
  EXPECT_EQ(pool.slab_count(), 1u);
  // Recycling does not grow capacity.
  pool.release(job);
  (void)acquire_with_id(pool, 2);
  EXPECT_EQ(pool.capacity(), 1u);
}

// The end-to-end consequence: two runs of the same scenario in the same
// process recycle pool slots along different absolute addresses (the second
// run's pool sits elsewhere on the heap), yet every statistic matches
// bit-for-bit. Catches any accidental ordering by pointer value anywhere in
// the queue/policy/engine stack.
TEST(JobPool, RepeatedEngineRunsAreBitIdentical) {
  const SimulationConfig config =
      testing::paper_point(PolicyKind::kGS, /*utilization=*/0.5, /*jobs=*/4000, /*seed=*/42);

  const SimulationResult first = run_simulation(config);
  const SimulationResult second = run_simulation(config);
  ASSERT_FALSE(first.unstable);
  EXPECT_EQ(first.completed_jobs, second.completed_jobs);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.mean_response(), second.mean_response());
  EXPECT_EQ(first.response_all.stddev(), second.response_all.stddev());
  EXPECT_EQ(first.busy_fraction, second.busy_fraction);
  EXPECT_EQ(first.response_p95, second.response_p95);
}

}  // namespace
}  // namespace mcsim
