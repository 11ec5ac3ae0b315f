// Integration tests asserting the paper's qualitative findings at reduced
// scale. The full-scale numbers are the sealed scenario goldens under
// data/golden (`mcsim verify` re-runs them bit for bit), and EXPERIMENTS.md
// renders its measured tables from those goldens (tools/render_experiments);
// these runs are sized to keep ctest fast while the orderings remain
// statistically solid.
#include <gtest/gtest.h>

#include <limits>

#include "exp/scenario_spec.hpp"
#include "exp/sweep.hpp"
#include "workload/das_workload.hpp"

namespace mcsim {
namespace {

exp::ScenarioSpec scenario_for(PolicyKind policy, std::uint32_t limit, bool balanced = true,
                               bool das64 = false, std::uint64_t jobs = 12000,
                               std::uint64_t seed = 42) {
  exp::ScenarioSpec spec;
  spec.policy = policy;
  spec.component_limit = limit;
  spec.balanced_queues = balanced;
  spec.size_model = das64 ? "das-s-64" : "das-s-128";
  spec.sim_jobs = jobs;
  spec.seed = seed;
  return spec;
}

double max_util(PolicyKind policy, std::uint32_t limit, bool balanced = true,
                bool das64 = false, std::uint64_t jobs = 12000) {
  exp::ScenarioSpec spec = scenario_for(policy, limit, balanced, das64, jobs);
  spec.mode = exp::RunMode::kSweep;
  spec.utilization_grid = make_sweep_grid(0.30, 0.80, 0.05);
  return run_sweep(spec).max_stable_utilization();
}

double response_at(PolicyKind policy, std::uint32_t limit, double rho, bool balanced = true,
                   bool das64 = false, std::uint64_t jobs = 12000) {
  const auto result = run_simulation(
      exp::to_simulation_config(scenario_for(policy, limit, balanced, das64, jobs), rho));
  return result.unstable ? std::numeric_limits<double>::infinity()
                         : result.mean_response();
}

// Sect. 3.1.1: with DAS-s-128 the performance is poor for ALL policies —
// even total requests saturate well below 1.
TEST(PaperShape, AllPoliciesSaturateWellBelowOne) {
  for (PolicyKind policy :
       {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kSC}) {
    EXPECT_LT(max_util(policy, 16), 0.78) << policy_name(policy);
  }
}

// Sect. 3.1.1: LS is the best multicluster policy at limit 16; LP is worst.
TEST(PaperShape, LsBeatsGsBeatsLpAtLimit16) {
  const double ls = max_util(PolicyKind::kLS, 16);
  const double gs = max_util(PolicyKind::kGS, 16);
  const double lp = max_util(PolicyKind::kLP, 16);
  EXPECT_GE(ls, gs);
  EXPECT_GE(gs, lp);
  EXPECT_GT(ls, lp);  // strictly better end to end
}

// Sect. 3.1.1: at limit 16, LS's maximal gross utilization is in SC's
// ballpark ("in some cases LS even comes close to using FCFS for total
// requests in a single cluster"). The paper has LS a whisker above SC; with
// our reconstructed log the whisker lands a grid step below — see
// EXPERIMENTS.md. The invariant that survives reconstruction noise is that
// LS is within a few percent of SC while GS/LP trail clearly.
TEST(PaperShape, LsGrossUtilizationCloseToScAtLimit16) {
  const double ls = max_util(PolicyKind::kLS, 16, true, false, 24000);
  const double sc = max_util(PolicyKind::kSC, 16, true, false, 24000);
  EXPECT_GE(ls, 0.9 * sc);
  EXPECT_GT(ls, max_util(PolicyKind::kLP, 16));
}

// Sect. 3.1.2: unbalancing the local queues hurts LS.
TEST(PaperShape, UnbalanceHurtsLs) {
  const double balanced = response_at(PolicyKind::kLS, 32, 0.45, true);
  const double unbalanced = response_at(PolicyKind::kLS, 32, 0.45, false);
  EXPECT_GT(unbalanced, balanced);
}

// Sect. 3.1.2: LP barely notices the unbalance (all global jobs go to one
// queue anyway). Allow generous slack; it must at least not blow up the way
// LS does.
TEST(PaperShape, UnbalanceBarelyAffectsLp) {
  const double balanced = response_at(PolicyKind::kLP, 16, 0.35, true);
  const double unbalanced = response_at(PolicyKind::kLP, 16, 0.35, false);
  EXPECT_LT(unbalanced, balanced * 1.5);
}

// Sect. 3.2 / Fig. 5: limiting the total job size to 64 improves
// performance, most dramatically for SC.
TEST(PaperShape, DasS64ImprovesEveryPolicy) {
  for (PolicyKind policy : {PolicyKind::kSC, PolicyKind::kLS}) {
    EXPECT_GT(max_util(policy, 16, true, /*das64=*/true),
              max_util(policy, 16, true, /*das64=*/false))
        << policy_name(policy);
  }
}

// Sect. 3.3: limit 24 is the worst component-size limit for every policy.
TEST(PaperShape, Limit24IsWorstForGs) {
  const double u16 = max_util(PolicyKind::kGS, 16);
  const double u24 = max_util(PolicyKind::kGS, 24);
  const double u32 = max_util(PolicyKind::kGS, 32);
  EXPECT_LT(u24, u16);
  EXPECT_LT(u24, u32);
}

TEST(PaperShape, Limit24IsWorstForLs) {
  const double u16 = max_util(PolicyKind::kLS, 16);
  const double u24 = max_util(PolicyKind::kLS, 24);
  EXPECT_LT(u24, u16);
}

// Sect. 3.1.3 / Fig. 4: near LP saturation the global queue's response time
// dwarfs the local queues'.
TEST(PaperShape, LpGlobalQueueIsTheBottleneck) {
  const auto spec = scenario_for(PolicyKind::kLP, 16, true, false, 15000);
  // Drive LP close to (but under) its saturation point.
  const auto result = run_simulation(exp::to_simulation_config(spec, 0.42));
  ASSERT_FALSE(result.unstable);
  ASSERT_GT(result.response_global.count(), 0u);
  ASSERT_GT(result.response_local.count(), 0u);
  EXPECT_GT(result.response_global.mean(), 2.0 * result.response_local.mean());
}

// Sect. 4: the measured gross/net utilization gap matches the closed form,
// and shrinks as the component-size limit grows.
TEST(PaperShape, GrossNetGapShrinksWithLimit) {
  const double r16 = gross_net_ratio(das_s_128(), 16, 4, 1.25);
  const double r32 = gross_net_ratio(das_s_128(), 32, 4, 1.25);
  EXPECT_GT(r16, r32);
  const auto result = run_simulation(exp::to_simulation_config(
      scenario_for(PolicyKind::kGS, 16, true, false, 15000, /*seed=*/7), 0.4));
  EXPECT_NEAR(result.offered_gross_utilization / result.offered_net_utilization, r16, 0.02);
}

}  // namespace
}  // namespace mcsim
