#include "policy/queue.hpp"

#include "util/assert.hpp"

namespace mcsim {

void JobQueue::set_order(JobOrder order) {
  MCSIM_REQUIRE(size_ == 0, "service order must be set before jobs arrive");
  order_ = order;
}

void JobQueue::grow() {
  std::vector<JobPtr> ring(ring_.empty() ? 16 : 2 * ring_.size());
  for (std::size_t i = 0; i < size_; ++i) ring[i] = slot(i);
  ring_.swap(ring);
  head_ = 0;
}

void JobQueue::push(JobPtr job) {
  MCSIM_REQUIRE(job != nullptr, "cannot enqueue a null job");
  if (size_ == ring_.size()) grow();
  std::size_t index = size_;
  if (order_ != nullptr) {
    // Stable priority insert: after all jobs that are not strictly worse.
    index = 0;
    while (index < size_ && !order_(*job, *slot(index))) ++index;
  }
  if (index < size_ - index) {
    // Open the slot on the head side: the jobs ahead of it move one place
    // toward the new head.
    head_ = (head_ + ring_.size() - 1) & (ring_.size() - 1);
    for (std::size_t k = 0; k < index; ++k) slot(k) = slot(k + 1);
  } else {
    for (std::size_t k = size_; k > index; --k) slot(k) = slot(k - 1);
  }
  slot(index) = job;
  ++size_;
  ++total_enqueued_;
}

JobPtr JobQueue::front() const {
  MCSIM_REQUIRE(size_ != 0, "queue is empty");
  return slot(0);
}

JobPtr JobQueue::pop() {
  MCSIM_REQUIRE(size_ != 0, "queue is empty");
  const JobPtr job = slot(0);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  return job;
}

JobPtr JobQueue::at(std::size_t index) const {
  MCSIM_REQUIRE(index < size_, "queue index out of range");
  return slot(index);
}

JobPtr JobQueue::remove_at(std::size_t index) {
  MCSIM_REQUIRE(index < size_, "queue index out of range");
  const JobPtr job = slot(index);
  if (index < size_ - 1 - index) {
    // Close the gap from the head side.
    for (std::size_t k = index; k > 0; --k) slot(k) = slot(k - 1);
    head_ = (head_ + 1) & (ring_.size() - 1);
  } else {
    for (std::size_t k = index; k + 1 < size_; ++k) slot(k) = slot(k + 1);
  }
  --size_;
  return job;
}

}  // namespace mcsim
