// Policy names and scheduler construction (Sect. 2.5): GS, LS, LP on the
// multicluster, SC on the equivalent single cluster. The names are aliases —
// each expands to a canonical PipelineSpec (policy/pipeline.hpp) and every
// scheduler is a ComposedScheduler built from one.
#pragma once

#include <memory>
#include <string>

#include "policy/scheduler.hpp"

namespace mcsim {

struct PipelineSpec;

enum class PolicyKind { kGS, kLS, kLP, kSC };

const char* policy_name(PolicyKind kind);
/// Parse a policy name ("GS", "ls", ...; case-insensitive). Throws
/// std::invalid_argument on anything else.
PolicyKind parse_policy_kind(const std::string& name);

/// Whether the policy runs on a single cluster holding all processors (SC)
/// rather than the multicluster.
bool is_single_cluster_policy(PolicyKind kind);

/// Construct the scheduler for `kind` bound to `context`: expand_policy()
/// maps the alias to its canonical pipeline, carrying the three tuning knobs
/// over. Backfilling (an extension; the paper uses kNone) needs the single
/// global queue, so it is rejected for LS and LP.
std::unique_ptr<Scheduler> make_scheduler(PolicyKind kind, SchedulerContext& context,
                                          PlacementRule placement = PlacementRule::kWorstFit,
                                          BackfillMode backfill = BackfillMode::kNone,
                                          QueueDiscipline discipline = QueueDiscipline::kFcfs);

/// Construct the scheduler for an explicit pipeline composition. `kind` only
/// seeds the display name (scheduler_display_name); the pipeline decides the
/// behaviour. Throws std::invalid_argument for invalid compositions
/// (validate_pipeline).
std::unique_ptr<Scheduler> make_scheduler(PolicyKind kind, const PipelineSpec& pipeline,
                                          SchedulerContext& context);

}  // namespace mcsim
