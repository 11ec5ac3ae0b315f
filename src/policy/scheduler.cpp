#include "policy/scheduler.hpp"

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

const char* backfill_mode_name(BackfillMode mode) {
  switch (mode) {
    case BackfillMode::kNone: return "fcfs";
    case BackfillMode::kAggressive: return "aggressive-bf";
    case BackfillMode::kEasy: return "easy-bf";
    case BackfillMode::kConservative: return "conservative-bf";
  }
  return "?";
}

BackfillMode parse_backfill_mode(const std::string& name) {
  const std::string lower = to_lower(name);
  // backfill_mode_name(kNone) prints "fcfs" (no backfilling = plain FCFS),
  // so both spellings must parse back to kNone for the round trip to hold.
  if (lower == "none" || lower == "fcfs") return BackfillMode::kNone;
  if (lower == "aggressive" || lower == "aggressive-bf") return BackfillMode::kAggressive;
  if (lower == "easy" || lower == "easy-bf") return BackfillMode::kEasy;
  if (lower == "conservative" || lower == "conservative-bf") {
    return BackfillMode::kConservative;
  }
  MCSIM_REQUIRE(false, "unknown backfill mode: " + name +
                           " (expected none, aggressive, easy, or conservative)");
  return BackfillMode::kNone;
}

const char* queue_discipline_name(QueueDiscipline discipline) {
  switch (discipline) {
    case QueueDiscipline::kFcfs: return "fcfs";
    case QueueDiscipline::kShortestJobFirst: return "sjf";
    case QueueDiscipline::kLongestJobFirst: return "ljf";
    case QueueDiscipline::kSmallestFirst: return "smallest-first";
    case QueueDiscipline::kLargestFirst: return "largest-first";
  }
  return "?";
}

QueueDiscipline parse_queue_discipline(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "fcfs") return QueueDiscipline::kFcfs;
  if (lower == "sjf" || lower == "shortest-job-first") {
    return QueueDiscipline::kShortestJobFirst;
  }
  if (lower == "ljf" || lower == "longest-job-first") {
    return QueueDiscipline::kLongestJobFirst;
  }
  if (lower == "smallest-first") return QueueDiscipline::kSmallestFirst;
  if (lower == "largest-first") return QueueDiscipline::kLargestFirst;
  MCSIM_REQUIRE(false, "unknown queue discipline: " + name +
                           " (expected fcfs, sjf, ljf, smallest-first, or largest-first)");
  return QueueDiscipline::kFcfs;
}

JobOrder make_job_order(QueueDiscipline discipline) {
  switch (discipline) {
    case QueueDiscipline::kFcfs:
      return nullptr;
    case QueueDiscipline::kShortestJobFirst:
      return [](const Job& a, const Job& b) {
        return a.spec.gross_service_time < b.spec.gross_service_time;
      };
    case QueueDiscipline::kLongestJobFirst:
      return [](const Job& a, const Job& b) {
        return a.spec.gross_service_time > b.spec.gross_service_time;
      };
    case QueueDiscipline::kSmallestFirst:
      return [](const Job& a, const Job& b) {
        return a.spec.total_size < b.spec.total_size;
      };
    case QueueDiscipline::kLargestFirst:
      return [](const Job& a, const Job& b) {
        return a.spec.total_size > b.spec.total_size;
      };
  }
  return nullptr;
}

bool Scheduler::try_place(Job& job) const {
  context_.system().idle_counts_into(idle_scratch_);
  bool fits = false;
  switch (job.spec.request_type) {
    case RequestType::kOrdered:
      fits = place_ordered(job.spec.components, job.spec.ordered_clusters, idle_scratch_,
                           place_scratch_, job.allocation);
      break;
    case RequestType::kFlexible:
      fits = place_flexible(job.spec.total_size, idle_scratch_, place_scratch_,
                            job.allocation);
      break;
    case RequestType::kUnordered:
    case RequestType::kTotal:
      fits = place_components(job.spec.components, idle_scratch_, capacities(), placement_,
                              place_scratch_, job.allocation);
      break;
  }
  context_.record_placement(job, fits, /*cluster=*/-1);
  return fits;
}

bool Scheduler::try_place_local(Job& job, ClusterId cluster) const {
  MCSIM_ASSERT(job.spec.components.size() == 1);
  // One cluster's idle count decides; no snapshot of the whole system.
  const std::uint32_t processors = job.spec.components.front();
  const bool fits = processors <= context_.system().cluster(cluster).idle();
  job.allocation.clear();
  if (fits) job.allocation.push_back(ComponentPlacement{cluster, processors});
  context_.record_placement(job, fits, static_cast<std::int16_t>(cluster));
  return fits;
}

bool Scheduler::try_place_whole(Job& job) const {
  // The whole request on the most-idle cluster that holds it (ties toward
  // the lower id — the same determinism rule as the placement functions).
  const Multicluster& system = context_.system();
  const std::uint32_t total = job.spec.total_size;
  ClusterId best = static_cast<ClusterId>(system.num_clusters());
  std::uint32_t best_idle = 0;
  for (ClusterId c = 0; c < system.num_clusters(); ++c) {
    const std::uint32_t idle = system.cluster(c).idle();
    if (idle < total) continue;
    if (best == system.num_clusters() || idle > best_idle) {
      best = c;
      best_idle = idle;
    }
  }
  const bool fits = best != system.num_clusters();
  job.allocation.clear();
  if (fits) job.allocation.push_back(ComponentPlacement{best, total});
  context_.record_placement(job, fits, /*cluster=*/-1);
  return fits;
}

const std::vector<std::uint32_t>& Scheduler::capacities() const {
  if (capacity_cache_.empty()) {
    const Multicluster& system = context_.system();
    capacity_cache_.reserve(system.num_clusters());
    for (ClusterId c = 0; c < system.num_clusters(); ++c) {
      capacity_cache_.push_back(system.cluster(c).capacity());
    }
  }
  return capacity_cache_;
}

}  // namespace mcsim
