#include "policy/queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <vector>

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
  // Smallest-first: every push lands somewhere in the middle of the ring,
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

  // Warm-up round: lets the ring grow to this pattern's high-water mark,
  // outside the probed region.
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

// ---- The ring -------------------------------------------------------------
// JobQueue is a power-of-two ring that grows by doubling and shifts the
// shorter side on a middle insert or removal. Each case below keeps a plain
// std::deque of the expected ids beside it and drives the ring through the
// index arithmetic that only shows once the occupied slots wrap past the
// end of the buffer.

/// `count` jobs with ids first, first+1, ... and total size `size`.
std::vector<JobPtr> jobs_from(std::uint64_t first, std::size_t count,
                              std::uint32_t size = 1) {
  std::vector<JobPtr> jobs;
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(make_job(first + i, {size}));
  return jobs;
}

void expect_ids(const JobQueue& queue, const std::deque<std::uint64_t>& expected) {
  ASSERT_EQ(queue.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(queue.at(i)->spec.id, expected[i]) << "at index " << i;
  }
}

bool smaller_first(const Job& a, const Job& b) { return a.spec.total_size < b.spec.total_size; }

TEST(JobQueueRing, WrapsAroundInFifoOrder) {
  JobQueue queue;
  std::deque<std::uint64_t> expected;
  // Three in, two out per step: the occupied slots walk around the ring
  // many times while the queue stays short.
  const auto jobs = jobs_from(1, 300);
  for (std::size_t step = 0; step < 100; ++step) {
    for (std::size_t k = 0; k < 3; ++k) {
      queue.push(jobs[3 * step + k]);
      expected.push_back(jobs[3 * step + k]->spec.id);
    }
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_EQ(queue.pop()->spec.id, expected.front());
      expected.pop_front();
    }
  }
  expect_ids(queue, expected);
  EXPECT_EQ(queue.total_enqueued(), 300u);
}

TEST(JobQueueRing, GrowsWhileWrapped) {
  JobQueue queue;
  std::deque<std::uint64_t> expected;
  const auto first = jobs_from(1, 12);
  for (JobPtr job : first) queue.push(job);
  for (std::size_t k = 0; k < 10; ++k) queue.pop();
  expected = {11, 12};
  // The head now sits mid-buffer; these pushes wrap and then outgrow it.
  for (JobPtr job : jobs_from(13, 40)) {
    queue.push(job);
    expected.push_back(job->spec.id);
    expect_ids(queue, expected);
  }
  while (!queue.empty()) {
    ASSERT_EQ(queue.pop()->spec.id, expected.front());
    expected.pop_front();
  }
}

TEST(JobQueueRing, RemoveAtClosesTheGapFromEitherSide) {
  JobQueue queue;
  std::deque<std::uint64_t> expected;
  for (JobPtr job : jobs_from(1, 16)) queue.push(job);
  for (std::size_t k = 0; k < 9; ++k) queue.pop();
  for (JobPtr job : jobs_from(17, 9)) queue.push(job);
  for (std::uint64_t id = 10; id <= 25; ++id) expected.push_back(id);
  expect_ids(queue, expected);
  // Near the head (the head side moves), near the tail (the tail side
  // moves), then both ends and the middle.
  for (const std::size_t index : {std::size_t{2}, queue.size() - 3, std::size_t{0},
                                  queue.size() - 5, std::size_t{6}, std::size_t{1}}) {
    ASSERT_EQ(queue.remove_at(index)->spec.id, expected[index]);
    expected.erase(expected.begin() + static_cast<long>(index));
    expect_ids(queue, expected);
  }
  ASSERT_EQ(queue.remove_at(queue.size() - 1)->spec.id, expected.back());
  expected.pop_back();
  expect_ids(queue, expected);
  EXPECT_THROW(queue.remove_at(queue.size()), std::invalid_argument);
}

TEST(JobQueueRing, PriorityInsertAcrossTheWrap) {
  JobQueue queue;
  queue.set_order(smaller_first);
  std::deque<std::uint64_t> expected;
  // Equal keys append, so this fills in FIFO order; popping then parks the
  // head near the end of the buffer and the next pushes wrap.
  for (JobPtr job : jobs_from(1, 14, 5)) queue.push(job);
  for (std::size_t k = 0; k < 12; ++k) queue.pop();
  for (JobPtr job : jobs_from(15, 8, 5)) queue.push(job);
  expected = {13, 14, 15, 16, 17, 18, 19, 20, 21, 22};
  expect_ids(queue, expected);
  // A smaller job lands at the head (the head side shifts back across the
  // wrap), a larger one at the tail, and equal keys after their equals.
  queue.push(make_job(100, {1}));
  expected.push_front(100);
  expect_ids(queue, expected);
  queue.push(make_job(101, {9}));
  expected.push_back(101);
  expect_ids(queue, expected);
  queue.push(make_job(102, {5}));
  expected.insert(expected.end() - 1, 102);
  expect_ids(queue, expected);
  queue.push(make_job(103, {3}));
  expected.insert(expected.begin() + 1, 103);
  expect_ids(queue, expected);
}

TEST(JobQueueRing, RandomOperationsMatchAPlainDeque) {
  JobQueue queue;
  queue.set_order(smaller_first);
  std::deque<JobPtr> model;
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  std::uint64_t id = 1;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = next(10);
    if (op < 5 || model.empty()) {
      JobPtr job = make_job(id++, {static_cast<std::uint32_t>(1 + next(4))});
      queue.push(job);
      auto at = model.begin();
      while (at != model.end() && !smaller_first(*job, **at)) ++at;
      model.insert(at, job);
    } else if (op < 8) {
      ASSERT_EQ(queue.pop(), model.front());
      model.pop_front();
    } else {
      const std::size_t index = next(model.size());
      ASSERT_EQ(queue.remove_at(index), model[index]);
      model.erase(model.begin() + static_cast<long>(index));
    }
    ASSERT_EQ(queue.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(queue.front(), model.front());
    }
  }
  for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(queue.at(i), model[i]);
}

TEST(JobQueueRing, WarmRingNeverReachesTheAllocator) {
  JobQueue queue;
  const auto jobs = jobs_from(1, 64);
  // Warm-up: the ring reaches the high-water mark the probe stays under.
  for (JobPtr job : jobs) queue.push(job);
  while (!queue.empty()) queue.pop();

  const std::size_t allocations_before = g_allocation_count;
  for (std::size_t round = 0; round < 50; ++round) {
    // Hold 40-odd jobs while the occupied span walks around the ring.
    for (std::size_t k = 0; k < 40; ++k) queue.push(jobs[(round + k) % jobs.size()]);
    (void)queue.remove_at(3);
    (void)queue.remove_at(queue.size() - 4);
    for (std::size_t k = 0; k < 30; ++k) (void)queue.pop();
    while (queue.size() > 8) (void)queue.pop();
  }
  const std::size_t allocations_after = g_allocation_count;
  EXPECT_EQ(allocations_after, allocations_before) << "a warm ring reached the allocator";
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
