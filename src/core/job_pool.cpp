#include "core/job_pool.hpp"

#include "util/assert.hpp"

namespace mcsim {

Job* JobPool::acquire() {
  Job* job = nullptr;
  if (!free_.empty()) {
    job = free_.back();
    free_.pop_back();
  } else {
    if (next_in_slab_ == kSlabCapacity) {
      slabs_.push_back(std::make_unique<Job[]>(kSlabCapacity));
      next_in_slab_ = 0;
    }
    job = &slabs_.back()[next_in_slab_++];
  }
  job->reset();
  ++acquired_;
  return job;
}

void JobPool::release(Job* job) {
  MCSIM_ASSERT(job != nullptr);
  MCSIM_ASSERT(acquired_ > released_);
  free_.push_back(job);
  ++released_;
}

}  // namespace mcsim
