#include "core/job_pool.hpp"

#include "util/assert.hpp"

namespace mcsim {

void JobPool::configure_shards(std::uint32_t shards) {
  MCSIM_REQUIRE(shards >= 1, "job pool needs at least one shard");
  MCSIM_REQUIRE(acquired_ == 0, "configure_shards must precede the first acquire");
  free_.assign(shards, {});
}

Job* JobPool::acquire(std::uint32_t shard) {
  MCSIM_ASSERT(shard < free_.size());
  Job* job = nullptr;
  std::vector<Job*>& lane = free_[shard];
  if (!lane.empty()) {
    job = lane.back();
    lane.pop_back();
  } else {
    if (next_in_slab_ == kSlabCapacity) {
      slabs_.push_back(std::make_unique<Job[]>(kSlabCapacity));
      next_in_slab_ = 0;
    }
    job = &slabs_.back()[next_in_slab_++];
  }
  job->reset();
  job->pool_shard = shard;
  ++acquired_;
  return job;
}

void JobPool::release(Job* job) {
  MCSIM_ASSERT(job != nullptr);
  MCSIM_ASSERT(acquired_ > released_);
  MCSIM_ASSERT(job->pool_shard < free_.size());
  free_[job->pool_shard].push_back(job);
  ++released_;
}

}  // namespace mcsim
