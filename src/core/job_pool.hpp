// Slab-allocated job pool: the engine-owned backing store for every Job in
// one simulation run (docs/PERFORMANCE.md, "Pooled jobs").
//
// Why: the hot loop used to std::make_shared<Job> per arrival and thread
// shared_ptr<Job> through every queue hop — one control-block allocation
// per job plus atomic refcount traffic on each push/pop/placement, for
// objects whose lifetime is in fact strictly engine-scoped. The pool hands
// out stable Job* handles instead: acquire() is a free-list pop (or a bump
// within the current slab) and release() a free-list push. A recycled job
// keeps the capacity of its spec's vectors and of its allocation: the job
// source fills the spec in place and placement writes into the allocation,
// so once the pool and the schedulers' scratch buffers are warm a job's
// lifecycle makes no per-job heap allocation (docs/PERFORMANCE.md,
// "Allocation-free job lifecycle"; tests/core_engine_alloc_test.cpp).
//
// Determinism: recycling makes job *addresses* depend on completion order,
// so nothing in the engine may order by pointer value (JobOrder compares
// spec fields; queues are positional). Job identity for statistics and
// traces is spec.id, which the workload source assigns deterministically.
// The pool is a per-engine member — parallel runs (exp::Runner) each own
// one, so no cross-run state leaks (tests/core_job_pool_test.cpp pins
// both properties).
//
// Slabs are fixed-size arrays owned by unique_ptr, so live handles are
// never invalidated by pool growth; all jobs — live, free, or mid-flight
// when an instability stop abandons them — are destroyed with the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/job.hpp"

namespace mcsim {

class JobPool {
 public:
  /// Jobs per slab. 256 jobs ~= a few slab allocations for a paper run's
  /// steady-state job population (pending jobs ~= running + queued, far
  /// below the total arrival count thanks to recycling).
  static constexpr std::size_t kSlabCapacity = 256;

  JobPool() = default;
  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Sharding (parallel engine, docs/PARALLEL.md): split the free list
  /// into `shards` independent LIFO lanes so each logical process can
  /// recycle jobs through its own lane with no cross-LP traffic. Slab
  /// growth stays pool-global (it only happens in serial phases). Must be
  /// called before the first acquire; the default single shard is the
  /// serial engine's exact historical LIFO behaviour.
  void configure_shards(std::uint32_t shards);
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// Hand out a job with fresh run state (Job::reset) — recycled from
  /// `shard`'s free lane when possible, otherwise bump-allocated from the
  /// current slab. Its `spec` still holds the previous occupant's fields
  /// (and buffers) until the caller fills it in place. The returned pointer
  /// is stable until the pool is destroyed.
  Job* acquire(std::uint32_t shard = 0);

  /// Return a job to the free lane of the shard it was acquired from. The
  /// caller must drop every handle: the next acquire() may recycle the
  /// object for an unrelated arrival.
  void release(Job* job);

  /// Jobs currently acquired and not yet released.
  [[nodiscard]] std::size_t live() const {
    return static_cast<std::size_t>(acquired_ - released_);
  }
  /// Jobs ever acquired (recycles included).
  [[nodiscard]] std::uint64_t total_acquired() const { return acquired_; }
  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
  /// Constructed job objects across all slabs (>= live()).
  [[nodiscard]] std::size_t capacity() const {
    return slabs_.empty()
               ? 0
               : (slabs_.size() - 1) * kSlabCapacity + next_in_slab_;
  }

 private:
  std::vector<std::unique_ptr<Job[]>> slabs_;
  /// Per-shard free lanes; one lane until configure_shards says otherwise.
  std::vector<std::vector<Job*>> free_{1};
  /// Next unused index in slabs_.back(); kSlabCapacity when a new slab is
  /// needed (or none exists yet).
  std::size_t next_in_slab_ = kSlabCapacity;
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
};

}  // namespace mcsim
