#include "policy/queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>

#include "test_support.hpp"

// ---------------------------------------------------------------------------
// Global-allocation probe. queue.hpp documents that push/pop/remove_at and
// the priority-insert comparator path move plain JobPtr handles and never
// touch the allocator; this TU replaces global operator new/delete with
// counting versions so ReorderingNeverTouchesAllocator can pin that claim.
// The counter covers the whole binary, so probed regions must contain only
// queue calls (no gtest assertions, no job construction).
// ---------------------------------------------------------------------------
namespace {
std::size_t g_allocation_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcsim {
namespace {

using testing::make_job;

TEST(JobQueue, FifoOrder) {
  JobQueue queue;
  queue.push(make_job(1, {4}));
  queue.push(make_job(2, {8}));
  queue.push(make_job(3, {2}));
  EXPECT_EQ(queue.pop()->spec.id, 1u);
  EXPECT_EQ(queue.pop()->spec.id, 2u);
  EXPECT_EQ(queue.pop()->spec.id, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, FrontPeeksWithoutRemoving) {
  JobQueue queue;
  queue.push(make_job(1, {4}));
  EXPECT_EQ(queue.front()->spec.id, 1u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(JobQueue, EnableDisable) {
  JobQueue queue;
  EXPECT_TRUE(queue.enabled());
  queue.disable();
  EXPECT_FALSE(queue.enabled());
  queue.enable();
  EXPECT_TRUE(queue.enabled());
}

TEST(JobQueue, EmptyAccessThrows) {
  JobQueue queue;
  EXPECT_THROW((void)queue.front(), std::invalid_argument);
  EXPECT_THROW(queue.pop(), std::invalid_argument);
}

TEST(JobQueue, NullPushThrows) {
  JobQueue queue;
  EXPECT_THROW(queue.push(nullptr), std::invalid_argument);
}

TEST(JobQueue, CountsTotalEnqueued) {
  JobQueue queue;
  queue.push(make_job(1, {1}));
  queue.push(make_job(2, {1}));
  queue.pop();
  EXPECT_EQ(queue.total_enqueued(), 2u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(JobQueue, ReorderingNeverTouchesAllocator) {
  JobQueue queue;
  // Smallest-first: every push lands somewhere in the middle of the deque,
  // exercising the priority-insert walk, not just push_back.
  queue.set_order([](const Job& a, const Job& b) {
    return a.spec.total_size < b.spec.total_size;
  });

  // Jobs are made up front: make_job's arena may allocate, the queue must not.
  std::array<JobPtr, 12> jobs{};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Sizes interleave (12, 1, 11, 2, ...) so inserts hit both ends and the
    // middle of the current order.
    const std::uint32_t size = (i % 2 == 0) ? static_cast<std::uint32_t>(12 - i / 2)
                                            : static_cast<std::uint32_t>(1 + i / 2);
    jobs[i] = make_job(i + 1, {size});
  }

  // Warm-up round: lets the deque grab whatever block structure this
  // push/insert/pop pattern needs, outside the probed region.
  for (JobPtr job : jobs) queue.push(job);
  while (!queue.empty()) queue.pop();

  std::array<JobPtr, 12> popped{};
  const std::size_t allocations_before = g_allocation_count;
  for (JobPtr job : jobs) queue.push(job);
  (void)queue.front();
  (void)queue.at(queue.size() - 1);
  // remove_at + re-insert round-trips a middle element (the backfill path).
  queue.push(queue.remove_at(5));
  for (std::size_t i = 0; i < popped.size(); ++i) popped[i] = queue.pop();
  const std::size_t allocations_after = g_allocation_count;

  EXPECT_EQ(allocations_after, allocations_before)
      << "queue reordering reached the allocator";
  // And the reorder actually happened: served smallest-first.
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1]->spec.total_size, popped[i]->spec.total_size);
  }
}

TEST(Job, SpecDerivedAccessors) {
  const auto multi = make_job(1, {16, 16});
  EXPECT_TRUE(multi->spec.is_multi_component());
  EXPECT_EQ(multi->spec.component_count(), 2u);
  EXPECT_EQ(multi->spec.total_size, 32u);
  EXPECT_FALSE(multi->started());

  const auto single = make_job(2, {5});
  EXPECT_FALSE(single->spec.is_multi_component());
}

}  // namespace
}  // namespace mcsim
