#include "policy/scheduler_factory.hpp"

#include "policy/composed_scheduler.hpp"
#include "policy/pipeline.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGS: return "GS";
    case PolicyKind::kLS: return "LS";
    case PolicyKind::kLP: return "LP";
    case PolicyKind::kSC: return "SC";
  }
  return "?";
}

PolicyKind parse_policy_kind(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "gs") return PolicyKind::kGS;
  if (lower == "ls") return PolicyKind::kLS;
  if (lower == "lp") return PolicyKind::kLP;
  if (lower == "sc") return PolicyKind::kSC;
  MCSIM_REQUIRE(false, "unknown policy: " + name + " (expected GS, LS, LP, or SC)");
  return PolicyKind::kGS;
}

bool is_single_cluster_policy(PolicyKind kind) { return kind == PolicyKind::kSC; }

std::unique_ptr<Scheduler> make_scheduler(PolicyKind kind, const PipelineSpec& pipeline,
                                          SchedulerContext& context) {
  if (is_single_cluster_policy(kind)) {
    MCSIM_REQUIRE(context.system().num_clusters() == 1,
                  "SC must run on a single-cluster system");
  }
  return std::make_unique<ComposedScheduler>(context, pipeline,
                                             scheduler_display_name(kind, pipeline));
}

}  // namespace mcsim
