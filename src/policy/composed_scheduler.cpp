#include "policy/composed_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace mcsim {

ComposedScheduler::ComposedScheduler(SchedulerContext& context, PipelineSpec pipeline,
                                     std::string display_name)
    : Scheduler(context, pipeline.placement),
      pipeline_(pipeline),
      display_name_(std::move(display_name)) {
  validate_pipeline(pipeline_);
  const JobOrder order = make_job_order(pipeline_.discipline);
  global_.set_order(order);
  if (pipeline_.structure != QueueStructure::kSingleGlobal) {
    const std::uint32_t n = context_.system().num_clusters();
    locals_.resize(n);
    for (JobQueue& queue : locals_) queue.set_order(order);
    if (pipeline_.structure == QueueStructure::kPerCluster) {
      visit_order_.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) visit_order_.push_back(i);
    }
  }
}

bool ComposedScheduler::place_for(Job& job, std::int32_t local_cluster) {
  switch (pipeline_.coallocation.kind) {
    case CoAllocationRule::Kind::kUnrestricted:
      return try_place(job);
    case CoAllocationRule::Kind::kLocalOnly: {
      if (job.spec.needs_coallocation()) return try_place(job);
      const std::uint32_t cluster = local_cluster >= 0
                                        ? static_cast<std::uint32_t>(local_cluster)
                                        : job.spec.origin_queue;
      MCSIM_REQUIRE(cluster < context_.system().num_clusters(),
                    "origin queue out of range");
      return try_place_local(job, static_cast<ClusterId>(cluster));
    }
    case CoAllocationRule::Kind::kComponentLimit:
      if (!job.spec.needs_coallocation() ||
          job.spec.component_count() <= pipeline_.coallocation.component_limit) {
        return try_place(job);
      }
      // Too many components to co-allocate: the job must fit whole on one
      // cluster.
      return try_place_whole(job);
  }
  job.allocation.clear();
  return false;
}

void ComposedScheduler::submit(JobPtr job) {
  switch (pipeline_.structure) {
    case QueueStructure::kSingleGlobal:
      job->queue_class = QueueClass::kGlobal;
      global_.push(job);
      // A constant-backlog refill is submitted after the engine released the
      // departing job but before on_departure() pruned it: the ledger must
      // not hand out processors the machine no longer holds.
      if (!running_.empty() && running_.processors() > context_.system().total_busy()) {
        running_.prune(context_.now());
      }
      try_schedule_single();
      break;
    case QueueStructure::kPerCluster: {
      const std::uint32_t qid = job->spec.origin_queue;
      MCSIM_REQUIRE(qid < locals_.size(), "origin queue out of range");
      job->queue_class = QueueClass::kLocal;
      locals_[qid].push(job);
      try_schedule_rotation();
      break;
    }
    case QueueStructure::kLocalPlusGlobal:
      if (job->spec.needs_coallocation()) {
        job->queue_class = QueueClass::kGlobal;
        global_.push(job);
      } else {
        const std::uint32_t qid = job->spec.origin_queue;
        MCSIM_REQUIRE(qid < locals_.size(), "origin queue out of range");
        job->queue_class = QueueClass::kLocal;
        locals_[qid].push(job);
      }
      try_schedule_priority();
      break;
  }
}

void ComposedScheduler::on_departure() {
  switch (pipeline_.structure) {
    case QueueStructure::kSingleGlobal:
      if (pipeline_.backfill != BackfillMode::kNone) {
        running_.prune(context_.now());
      }
      try_schedule_single();
      break;
    case QueueStructure::kPerCluster:
      // Re-enable in disable order, appending to the visit rotation.
      for (std::uint32_t qid : disabled_order_) {
        locals_[qid].enable();
        visit_order_.push_back(qid);
      }
      disabled_order_.clear();
      try_schedule_rotation();
      break;
    case QueueStructure::kLocalPlusGlobal:
      // All queues are re-enabled; whether the global queue actually gets
      // visited still depends on a local queue being empty (checked in the
      // round loop), which realises "if no local queue is empty only the
      // local queues are enabled".
      global_.enable();
      for (JobQueue& queue : locals_) queue.enable();
      try_schedule_priority();
      break;
  }
}

// ---- kSingleGlobal (historical PolicyGs) -------------------------------

void ComposedScheduler::start_at(std::size_t index) {
  JobPtr job = global_.remove_at(index);
  if (pipeline_.backfill != BackfillMode::kNone) {
    running_.on_start(context_.now() + job->spec.gross_service_time,
                      job->spec.total_size);
  }
  context_.start_job(job);
}

void ComposedScheduler::try_schedule_single() {
  // FCFS part, common to all modes: start head jobs while they fit.
  while (!global_.empty() && place_for(*global_.front(), -1)) start_at(0);
  if (global_.size() < 2) return;
  switch (pipeline_.backfill) {
    case BackfillMode::kNone: break;
    case BackfillMode::kAggressive: backfill_aggressive(); break;
    case BackfillMode::kEasy: backfill_easy(); break;
    case BackfillMode::kConservative: backfill_conservative(); break;
  }
}

void ComposedScheduler::backfill_aggressive() {
  // Scan past the (blocked) head and start anything that fits, in order.
  std::size_t index = 1;
  while (index < global_.size()) {
    if (place_for(*global_.at(index), -1)) {
      start_at(index);
      // Do not advance: the next job shifted into this slot.
    } else {
      ++index;
    }
  }
}

void ComposedScheduler::backfill_easy() {
  // The head is blocked: give it a reservation at time t_res, with `extra`
  // processors spare at that moment. A later job may start now iff it fits
  // now AND either completes by t_res or leaves the reservation intact
  // (total size within the spare processors).
  const auto [t_res, extra] = running_.head_reservation(
      context_.system().total_idle(), global_.front()->spec.total_size);
  const double now = context_.now();
  std::uint32_t spare = extra;
  std::size_t index = 1;
  while (index < global_.size()) {
    const Job& job = *global_.at(index);
    const bool ends_in_time = now + job.spec.gross_service_time <= t_res;
    const bool within_spare = job.spec.total_size <= spare;
    if (!ends_in_time && !within_spare) {
      ++index;
      continue;
    }
    if (!place_for(*global_.at(index), -1)) {
      ++index;
      continue;
    }
    if (!ends_in_time) spare -= job.spec.total_size;
    start_at(index);
  }
}

void ComposedScheduler::backfill_conservative() {
  // Every scanned job gets a reservation at the earliest slot of the
  // aggregate availability profile; a job starts now only when its own
  // earliest slot is now, so no start can delay any reservation made for a
  // job ahead of it — the no-starvation guarantee aggressive backfilling
  // gives up.
  //
  // The round ends as soon as no job left in the scan window can start.
  // A job starts only if its size fits profile_.free_now(), which
  // reservations only lower, so once the smallest remaining size exceeds
  // it the rest of the scan would only carve reservations into the
  // scratch profile — never read, never reaching place_for. Stopping there
  // changes no start and no placement attempt.
  const double now = context_.now();
  profile_.reset(now, context_.system().total_idle(), running_);
  // Each iteration visits the next job of the round's initial queue (a
  // start removes the job in place, anything else advances), so
  // min_size_from_[k] bounds the sizes of every job from iteration k on.
  const std::size_t window = std::min(global_.size(), kConservativeScanDepth);
  min_size_from_[window] = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t k = window; k-- > 0;) {
    min_size_from_[k] = std::min(min_size_from_[k + 1], global_.at(k)->spec.total_size);
  }
  std::size_t index = 0;
  for (std::size_t scanned = 0; scanned < window; ++scanned) {
    if (min_size_from_[scanned] > profile_.free_now()) break;
    Job& job = *global_.at(index);
    const double start =
        profile_.earliest_fit(job.spec.total_size, job.spec.gross_service_time);
    if (!std::isfinite(start)) {
      // Wider than the machine ever gets — leave it to block FCFS-style.
      ++index;
      continue;
    }
    if (start <= now) {
      if (place_for(job, -1)) {
        profile_.reserve(now, job.spec.gross_service_time, job.spec.total_size);
        start_at(index);
        continue;  // the next job shifted into this slot
      }
      // The aggregate count fits but the per-cluster layout does not
      // (fragmentation): hold the capacity anyway so later jobs cannot
      // take it and push this one further back.
    }
    profile_.reserve(std::max(start, now), job.spec.gross_service_time,
                     job.spec.total_size);
    ++index;
  }
}

// ---- kPerCluster (historical PolicyLs) ---------------------------------

void ComposedScheduler::try_schedule_rotation() {
  // visit_order_ holds exactly the enabled queues, each once, and a round
  // visits each of them once; a queue disabled during the round drops out
  // of the rotation for later rounds. So the round compacts visit_order_
  // in place as it goes: nothing is copied and nothing is erased.
  bool any_started = true;
  while (any_started) {
    any_started = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < visit_order_.size(); ++i) {
      const std::uint32_t qid = visit_order_[i];
      JobQueue& queue = locals_[qid];
      MCSIM_ASSERT(queue.enabled());
      if (!queue.empty()) {
        if (place_for(*queue.front(), static_cast<std::int32_t>(qid))) {
          context_.start_job(queue.pop());
          any_started = true;
        } else {
          queue.disable();
          disabled_order_.push_back(qid);
          continue;
        }
      }
      visit_order_[kept++] = qid;
    }
    visit_order_.resize(kept);
  }
}

// ---- kLocalPlusGlobal (historical PolicyLp) ----------------------------

bool ComposedScheduler::some_local_empty() const {
  return std::any_of(locals_.begin(), locals_.end(),
                     [](const JobQueue& q) { return q.empty(); });
}

void ComposedScheduler::try_schedule_priority() {
  bool any_started = true;
  while (any_started) {
    any_started = false;

    // The global queue is visited first ("they are always enabled starting
    // with the global queue"), but only while it has priority clearance:
    // at least one local queue empty and no unfitting head since the last
    // departure.
    if (global_.enabled() && !global_.empty() && some_local_empty()) {
      if (place_for(*global_.front(), -1)) {
        context_.start_job(global_.pop());
        any_started = true;
      } else {
        global_.disable();
      }
    }

    for (std::uint32_t qid = 0; qid < locals_.size(); ++qid) {
      JobQueue& queue = locals_[qid];
      if (!queue.enabled() || queue.empty()) continue;
      if (place_for(*queue.front(), static_cast<std::int32_t>(qid))) {
        context_.start_job(queue.pop());
        any_started = true;
      } else {
        queue.disable();
      }
    }
  }
}

// ---- aggregates --------------------------------------------------------

std::size_t ComposedScheduler::queued_jobs() const {
  std::size_t total = global_.size();
  for (const JobQueue& queue : locals_) total += queue.size();
  return total;
}

std::size_t ComposedScheduler::max_queue_length() const {
  std::size_t longest = global_.size();
  for (const JobQueue& queue : locals_) longest = std::max(longest, queue.size());
  return longest;
}

std::vector<std::size_t> ComposedScheduler::queue_lengths() const {
  switch (pipeline_.structure) {
    case QueueStructure::kSingleGlobal:
      return {global_.size()};
    case QueueStructure::kPerCluster: {
      std::vector<std::size_t> lengths;
      lengths.reserve(locals_.size());
      for (const JobQueue& queue : locals_) lengths.push_back(queue.size());
      return lengths;
    }
    case QueueStructure::kLocalPlusGlobal: {
      // Local queue lengths followed by the global queue length.
      std::vector<std::size_t> lengths;
      lengths.reserve(locals_.size() + 1);
      for (const JobQueue& queue : locals_) lengths.push_back(queue.size());
      lengths.push_back(global_.size());
      return lengths;
    }
  }
  return {};
}

}  // namespace mcsim
