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

/// Construct the scheduler for a pipeline composition bound to `context`
/// (expand_policy() gives a paper policy's canonical one). `kind` only
/// seeds the display name (scheduler_display_name) and the SC layout check;
/// the pipeline decides the behaviour. Throws std::invalid_argument for
/// invalid compositions (validate_pipeline), e.g. backfilling without the
/// single global queue.
std::unique_ptr<Scheduler> make_scheduler(PolicyKind kind, const PipelineSpec& pipeline,
                                          SchedulerContext& context);

}  // namespace mcsim
