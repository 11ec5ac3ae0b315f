#include "policy/pipeline.hpp"

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

const char* queue_structure_name(QueueStructure structure) {
  switch (structure) {
    case QueueStructure::kSingleGlobal: return "single";
    case QueueStructure::kPerCluster: return "per-cluster";
    case QueueStructure::kLocalPlusGlobal: return "local-global";
  }
  return "?";
}

const char* queue_structure_short_name(QueueStructure structure) {
  switch (structure) {
    case QueueStructure::kSingleGlobal: return "1q";
    case QueueStructure::kPerCluster: return "pc";
    case QueueStructure::kLocalPlusGlobal: return "lg";
  }
  return "?";
}

QueueStructure parse_queue_structure(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "single" || lower == "global" || lower == "1q") {
    return QueueStructure::kSingleGlobal;
  }
  if (lower == "per-cluster" || lower == "local" || lower == "pc") {
    return QueueStructure::kPerCluster;
  }
  if (lower == "local-global" || lower == "local+global" || lower == "lg") {
    return QueueStructure::kLocalPlusGlobal;
  }
  MCSIM_REQUIRE(false, "unknown queue structure: " + name +
                           " (expected single, per-cluster, or local-global)");
  return QueueStructure::kSingleGlobal;
}

std::string coallocation_rule_name(const CoAllocationRule& rule) {
  switch (rule.kind) {
    case CoAllocationRule::Kind::kUnrestricted: return "co";
    case CoAllocationRule::Kind::kLocalOnly: return "no-co";
    case CoAllocationRule::Kind::kComponentLimit:
      return "limit-" + std::to_string(rule.component_limit);
  }
  return "?";
}

CoAllocationRule parse_coallocation_rule(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "co" || lower == "unrestricted") {
    return CoAllocationRule{CoAllocationRule::Kind::kUnrestricted, 0};
  }
  if (lower == "no-co" || lower == "local-only") {
    return CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
  }
  if (lower.rfind("limit-", 0) == 0) {
    const std::string digits = lower.substr(6);
    MCSIM_REQUIRE(!digits.empty() &&
                      digits.find_first_not_of("0123456789") == std::string::npos,
                  "co-allocation limit is not a number: " + name);
    const unsigned long limit = std::stoul(digits);
    return CoAllocationRule{CoAllocationRule::Kind::kComponentLimit,
                            static_cast<std::uint32_t>(limit)};
  }
  MCSIM_REQUIRE(false, "unknown co-allocation rule: " + name +
                           " (expected co, no-co, or limit-<L>)");
  return CoAllocationRule{};
}

PipelineSpec expand_policy(PolicyKind kind, PlacementRule placement,
                           BackfillMode backfill, QueueDiscipline discipline) {
  PipelineSpec pipeline;
  pipeline.placement = placement;
  pipeline.backfill = backfill;
  pipeline.discipline = discipline;
  switch (kind) {
    case PolicyKind::kGS:
    case PolicyKind::kSC:
      pipeline.structure = QueueStructure::kSingleGlobal;
      pipeline.coallocation = {CoAllocationRule::Kind::kUnrestricted, 0};
      break;
    case PolicyKind::kLS:
      pipeline.structure = QueueStructure::kPerCluster;
      pipeline.coallocation = {CoAllocationRule::Kind::kLocalOnly, 0};
      break;
    case PolicyKind::kLP:
      pipeline.structure = QueueStructure::kLocalPlusGlobal;
      pipeline.coallocation = {CoAllocationRule::Kind::kLocalOnly, 0};
      break;
  }
  return pipeline;
}

void validate_pipeline(const PipelineSpec& pipeline) {
  // The backfilling stages reason about the aggregate future idle capacity
  // of the whole system, which only lines up with a single global queue;
  // LS's rotation already provides its own backfilling window (Sect.
  // 3.1.1). Per-cluster compositions with backfill reject deterministically.
  MCSIM_REQUIRE(pipeline.backfill == BackfillMode::kNone ||
                    pipeline.structure == QueueStructure::kSingleGlobal,
                std::string("pipeline: backfilling (") +
                    backfill_mode_name(pipeline.backfill) +
                    ") requires the single global queue structure, not " +
                    queue_structure_name(pipeline.structure));
  if (pipeline.coallocation.kind == CoAllocationRule::Kind::kComponentLimit) {
    MCSIM_REQUIRE(pipeline.coallocation.component_limit >= 1,
                  "pipeline: co-allocation component limit must be >= 1");
  } else {
    MCSIM_REQUIRE(pipeline.coallocation.component_limit == 0,
                  "pipeline: component_limit applies to the limit-<L> rule only");
  }
}

std::string scheduler_display_name(PolicyKind kind, const PipelineSpec& pipeline) {
  const PipelineSpec canonical = expand_policy(kind);
  std::string name;
  if (pipeline.structure == canonical.structure &&
      pipeline.coallocation == canonical.coallocation) {
    name = policy_name(kind);
  } else {
    name = std::string(queue_structure_short_name(pipeline.structure)) + "/" +
           coallocation_rule_name(pipeline.coallocation);
  }
  if (pipeline.backfill != BackfillMode::kNone) {
    name += '+';
    name += backfill_mode_name(pipeline.backfill);
  }
  if (pipeline.discipline != QueueDiscipline::kFcfs) {
    name += '+';
    name += queue_discipline_name(pipeline.discipline);
  }
  if (pipeline.placement != PlacementRule::kWorstFit) {
    name += '+';
    name += to_lower(placement_rule_name(pipeline.placement));
  }
  return name;
}

}  // namespace mcsim
