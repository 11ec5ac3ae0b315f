// The refactor's keystone gate: the ComposedScheduler must reproduce the
// deleted per-policy classes bit-for-bit. The reference implementations
// below are verbatim copies of the historical PolicyGs/PolicyLs/PolicyLp
// (the classes the sealed golden corpus was generated with), injected into
// the engine through SimulationConfig::scheduler_factory; each test runs
// the same spec twice — once through the normal composed pipeline, once
// with the reference scheduler — and compares the full serialized result
// document for equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json.hpp"
#include "policy/pipeline.hpp"
#include "policy/queue.hpp"
#include "policy/scheduler.hpp"
#include "util/assert.hpp"

namespace mcsim {
namespace {

// ---------------------------------------------------------------------------
// Reference GS (one global queue; optional aggressive/EASY backfilling) —
// the historical PolicyGs, unchanged.
class ReferenceGs final : public Scheduler {
 public:
  ReferenceGs(SchedulerContext& context, PlacementRule placement,
              std::string display_name = "GS",
              BackfillMode backfill = BackfillMode::kNone,
              QueueDiscipline discipline = QueueDiscipline::kFcfs)
      : Scheduler(context, placement),
        display_name_(std::move(display_name)),
        backfill_(backfill) {
    queue_.set_order(make_job_order(discipline));
  }

  void submit(JobPtr job) override {
    job->queue_class = QueueClass::kGlobal;
    queue_.push(job);
    try_schedule();
  }

  void on_departure() override {
    if (backfill_ != BackfillMode::kNone) {
      const double now = context_.now();
      std::erase_if(running_,
                    [now](const RunningJob& r) { return r.end_time <= now; });
    }
    try_schedule();
  }

  [[nodiscard]] std::size_t queued_jobs() const override { return queue_.size(); }
  [[nodiscard]] std::size_t max_queue_length() const override {
    return queue_.size();
  }
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override {
    return {queue_.size()};
  }
  [[nodiscard]] std::string name() const override { return display_name_; }

 private:
  struct RunningJob {
    double end_time;
    std::uint32_t processors;
  };

  void start_at(std::size_t index) {
    JobPtr job = queue_.remove_at(index);
    if (backfill_ != BackfillMode::kNone) {
      running_.push_back(RunningJob{context_.now() + job->spec.gross_service_time,
                                    job->spec.total_size});
    }
    context_.start_job(job);
  }

  void try_schedule() {
    while (!queue_.empty()) {
      const bool placed = try_place(*queue_.front());
      if (!placed) break;
      start_at(0);
    }
    if (queue_.size() < 2) return;
    switch (backfill_) {
      case BackfillMode::kNone:
      case BackfillMode::kConservative:  // not part of the legacy reference
        break;
      case BackfillMode::kAggressive:
        backfill_aggressive();
        break;
      case BackfillMode::kEasy:
        backfill_easy();
        break;
    }
  }

  void backfill_aggressive() {
    std::size_t index = 1;
    while (index < queue_.size()) {
      const bool placed = try_place(*queue_.at(index));
      if (placed) {
        start_at(index);
      } else {
        ++index;
      }
    }
  }

  [[nodiscard]] std::pair<double, std::uint32_t> head_reservation() const {
    MCSIM_ASSERT(!queue_.empty());
    const std::uint32_t needed = queue_.front()->spec.total_size;
    std::uint32_t idle = context_.system().total_idle();
    MCSIM_ASSERT(idle < needed || !running_.empty());

    // Historical tie handling: the spare comes from whichever tied entry
    // crosses `needed`. The composed stage counts the whole tie group
    // (policy/reservation.cpp); the synthetic runs compared here have
    // continuous end times, which do not tie.
    std::vector<RunningJob> by_end = running_;
    std::sort(by_end.begin(), by_end.end(),
              [](const RunningJob& a, const RunningJob& b) {
                return a.end_time < b.end_time;
              });
    for (const RunningJob& job : by_end) {
      idle += job.processors;
      if (idle >= needed) {
        return {job.end_time, idle - needed};
      }
    }
    return {std::numeric_limits<double>::infinity(), 0};
  }

  void backfill_easy() {
    const auto [t_res, extra] = head_reservation();
    const double now = context_.now();
    std::uint32_t spare = extra;
    std::size_t index = 1;
    while (index < queue_.size()) {
      const Job& job = *queue_.at(index);
      const bool ends_in_time = now + job.spec.gross_service_time <= t_res;
      const bool within_spare = job.spec.total_size <= spare;
      if (!ends_in_time && !within_spare) {
        ++index;
        continue;
      }
      const bool placed = try_place(*queue_.at(index));
      if (!placed) {
        ++index;
        continue;
      }
      if (!ends_in_time) spare -= job.spec.total_size;
      start_at(index);
    }
  }

  JobQueue queue_;
  std::string display_name_;
  BackfillMode backfill_;
  std::vector<RunningJob> running_;
};

// ---------------------------------------------------------------------------
// Reference LS (per-cluster queues, rotation with the disable protocol) —
// the historical PolicyLs, unchanged.
class ReferenceLs final : public Scheduler {
 public:
  // One deviation from the historical class: the display name is a
  // parameter (the legacy hard-coded "LS"), so tests of non-default
  // placements can match the composed scheduler's richer name.
  ReferenceLs(SchedulerContext& context, PlacementRule placement,
              std::string display_name = "LS")
      : Scheduler(context, placement), display_name_(std::move(display_name)) {
    const std::uint32_t n = context_.system().num_clusters();
    queues_.resize(n);
    visit_order_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) visit_order_.push_back(i);
  }

  void submit(JobPtr job) override {
    const std::uint32_t qid = job->spec.origin_queue;
    MCSIM_REQUIRE(qid < queues_.size(), "origin queue out of range");
    job->queue_class = QueueClass::kLocal;
    queues_[qid].push(job);
    try_schedule();
  }

  void on_departure() override {
    for (std::uint32_t qid : disabled_order_) {
      queues_[qid].enable();
      visit_order_.push_back(qid);
    }
    disabled_order_.clear();
    try_schedule();
  }

  [[nodiscard]] std::size_t queued_jobs() const override {
    std::size_t total = 0;
    for (const auto& queue : queues_) total += queue.size();
    return total;
  }
  [[nodiscard]] std::size_t max_queue_length() const override {
    std::size_t longest = 0;
    for (const auto& queue : queues_) longest = std::max(longest, queue.size());
    return longest;
  }
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override {
    std::vector<std::size_t> lengths;
    lengths.reserve(queues_.size());
    for (const auto& queue : queues_) lengths.push_back(queue.size());
    return lengths;
  }
  [[nodiscard]] std::string name() const override { return display_name_; }

 private:
  void try_schedule() {
    bool any_started = true;
    while (any_started) {
      any_started = false;
      const std::vector<std::uint32_t> round = visit_order_;
      for (std::uint32_t qid : round) {
        JobQueue& queue = queues_[qid];
        if (!queue.enabled() || queue.empty()) continue;
        Job& head = *queue.front();
        const bool placed = head.spec.needs_coallocation()
                                 ? try_place(head)
                                 : try_place_local(head, qid);
        if (placed) {
          context_.start_job(queue.pop());
          any_started = true;
        } else {
          disable_queue(qid);
        }
      }
    }
  }

  void disable_queue(std::uint32_t qid) {
    MCSIM_ASSERT(queues_[qid].enabled());
    queues_[qid].disable();
    disabled_order_.push_back(qid);
    visit_order_.erase(
        std::remove(visit_order_.begin(), visit_order_.end(), qid),
        visit_order_.end());
  }

  std::vector<JobQueue> queues_;
  std::vector<std::uint32_t> visit_order_;
  std::vector<std::uint32_t> disabled_order_;
  std::string display_name_;
};

// ---------------------------------------------------------------------------
// Reference LP (local queues with priority over one global queue) — the
// historical PolicyLp, unchanged.
class ReferenceLp final : public Scheduler {
 public:
  // Display name parameterised as in ReferenceLs (the legacy hard-coded
  // "LP"); the scheduling protocol is the historical one, unchanged.
  ReferenceLp(SchedulerContext& context, PlacementRule placement,
              std::string display_name = "LP")
      : Scheduler(context, placement), display_name_(std::move(display_name)) {
    locals_.resize(context_.system().num_clusters());
  }

  void submit(JobPtr job) override {
    if (job->spec.needs_coallocation()) {
      job->queue_class = QueueClass::kGlobal;
      global_.push(job);
    } else {
      const std::uint32_t qid = job->spec.origin_queue;
      MCSIM_REQUIRE(qid < locals_.size(), "origin queue out of range");
      job->queue_class = QueueClass::kLocal;
      locals_[qid].push(job);
    }
    try_schedule();
  }

  void on_departure() override {
    global_.enable();
    for (auto& queue : locals_) queue.enable();
    try_schedule();
  }

  [[nodiscard]] std::size_t queued_jobs() const override {
    std::size_t total = global_.size();
    for (const auto& queue : locals_) total += queue.size();
    return total;
  }
  [[nodiscard]] std::size_t max_queue_length() const override {
    std::size_t longest = global_.size();
    for (const auto& queue : locals_) longest = std::max(longest, queue.size());
    return longest;
  }
  [[nodiscard]] std::vector<std::size_t> queue_lengths() const override {
    std::vector<std::size_t> lengths;
    lengths.reserve(locals_.size() + 1);
    for (const auto& queue : locals_) lengths.push_back(queue.size());
    lengths.push_back(global_.size());
    return lengths;
  }
  [[nodiscard]] std::string name() const override { return display_name_; }

 private:
  [[nodiscard]] bool some_local_empty() const {
    return std::any_of(locals_.begin(), locals_.end(),
                       [](const JobQueue& q) { return q.empty(); });
  }

  void try_schedule() {
    bool any_started = true;
    while (any_started) {
      any_started = false;

      if (global_.enabled() && !global_.empty() && some_local_empty()) {
        const bool placed = try_place(*global_.front());
        if (placed) {
          context_.start_job(global_.pop());
          any_started = true;
        } else {
          global_.disable();
        }
      }

      for (std::uint32_t qid = 0; qid < locals_.size(); ++qid) {
        JobQueue& queue = locals_[qid];
        if (!queue.enabled() || queue.empty()) continue;
        const bool placed = try_place_local(*queue.front(), qid);
        if (placed) {
          context_.start_job(queue.pop());
          any_started = true;
        } else {
          queue.disable();
        }
      }
    }
  }

  std::vector<JobQueue> locals_;
  JobQueue global_;
  std::string display_name_;
};

// ---------------------------------------------------------------------------

using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(SchedulerContext&)>;

/// Run `spec` and serialize the complete result document. With a factory
/// the engine uses the injected reference scheduler; without, the normal
/// composed pipeline.
std::string run_and_serialize(const exp::ScenarioSpec& spec,
                              SchedulerFactory factory = nullptr) {
  SimulationConfig config = exp::to_simulation_config(spec);
  config.scheduler_factory = std::move(factory);
  MulticlusterSimulation sim(std::move(config));
  const SimulationResult result = sim.run();
  std::ostringstream out;
  obs::JsonWriter json(out);
  write_result_json(json, result);
  return out.str();
}

exp::ScenarioSpec equivalence_spec(PolicyKind kind) {
  exp::ScenarioSpec spec;
  spec.policy = kind;
  spec.utilization = 0.60;
  spec.sim_jobs = 4000;
  spec.seed = 20030622;
  return spec;
}

TEST(PolicyEquivalence, ComposedGsMatchesReferenceGs) {
  const auto spec = equivalence_spec(PolicyKind::kGS);
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(context,
                                                   PlacementRule::kWorstFit);
            }));
}

TEST(PolicyEquivalence, ComposedScMatchesReferenceGsOnOneCluster) {
  const auto spec = equivalence_spec(PolicyKind::kSC);
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(
                  context, PlacementRule::kWorstFit, "SC");
            }));
}

TEST(PolicyEquivalence, ComposedLsMatchesReferenceLs) {
  const auto spec = equivalence_spec(PolicyKind::kLS);
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceLs>(context,
                                                   PlacementRule::kWorstFit);
            }));
}

TEST(PolicyEquivalence, ComposedLpMatchesReferenceLp) {
  const auto spec = equivalence_spec(PolicyKind::kLP);
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceLp>(context,
                                                   PlacementRule::kWorstFit);
            }));
}

TEST(PolicyEquivalence, ComposedUnbalancedLsMatchesReferenceLs) {
  auto spec = equivalence_spec(PolicyKind::kLS);
  spec.balanced_queues = false;
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceLs>(context,
                                                   PlacementRule::kWorstFit);
            }));
}

TEST(PolicyEquivalence, ComposedSjfGsMatchesReferenceGs) {
  auto spec = equivalence_spec(PolicyKind::kGS);
  spec.discipline = QueueDiscipline::kShortestJobFirst;
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(
                  context, PlacementRule::kWorstFit, "GS+sjf",
                  BackfillMode::kNone, QueueDiscipline::kShortestJobFirst);
            }));
}

TEST(PolicyEquivalence, ComposedAggressiveBackfillMatchesReferenceGs) {
  auto spec = equivalence_spec(PolicyKind::kGS);
  spec.backfill = BackfillMode::kAggressive;
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(
                  context, PlacementRule::kWorstFit, "GS+aggressive-bf",
                  BackfillMode::kAggressive);
            }));
}

TEST(PolicyEquivalence, ComposedEasyBackfillMatchesReferenceGs) {
  auto spec = equivalence_spec(PolicyKind::kGS);
  spec.backfill = BackfillMode::kEasy;
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(
                  context, PlacementRule::kWorstFit, "GS+easy-bf",
                  BackfillMode::kEasy);
            }));
}

TEST(PolicyEquivalence, ComposedEasyBackfillOnScMatchesReferenceGs) {
  auto spec = equivalence_spec(PolicyKind::kSC);
  spec.backfill = BackfillMode::kEasy;
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [](SchedulerContext& context) {
              return std::make_unique<ReferenceGs>(
                  context, PlacementRule::kWorstFit, "SC+easy-bf",
                  BackfillMode::kEasy);
            }));
}

TEST(PolicyEquivalence, ComposedFirstFitLpMatchesReferenceLp) {
  auto spec = equivalence_spec(PolicyKind::kLP);
  spec.placement = PlacementRule::kFirstFit;
  const std::string name = scheduler_display_name(spec.policy, spec.pipeline());
  EXPECT_EQ(run_and_serialize(spec),
            run_and_serialize(spec, [&name](SchedulerContext& context) {
              return std::make_unique<ReferenceLp>(
                  context, PlacementRule::kFirstFit, name);
            }));
}

}  // namespace
}  // namespace mcsim
