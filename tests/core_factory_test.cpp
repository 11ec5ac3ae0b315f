#include "policy/scheduler_factory.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace mcsim {
namespace {

using testing::FakeContext;

TEST(PolicyNames, RoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP, PolicyKind::kSC}) {
    EXPECT_EQ(parse_policy_kind(policy_name(kind)), kind);
  }
}

TEST(PolicyNames, CaseInsensitiveParse) {
  EXPECT_EQ(parse_policy_kind("ls"), PolicyKind::kLS);
  EXPECT_EQ(parse_policy_kind("Lp"), PolicyKind::kLP);
}

TEST(PolicyNames, UnknownThrows) {
  EXPECT_THROW(parse_policy_kind("FCFS"), std::invalid_argument);
}

TEST(Factory, BuildsEveryPolicy) {
  FakeContext multi({32, 32, 32, 32});
  for (PolicyKind kind : {PolicyKind::kGS, PolicyKind::kLS, PolicyKind::kLP}) {
    EXPECT_EQ(make_scheduler(kind, expand_policy(kind), multi)->name(), policy_name(kind));
  }
  FakeContext single({128});
  EXPECT_EQ(make_scheduler(PolicyKind::kSC, expand_policy(PolicyKind::kSC), single)->name(),
            "SC");
}

TEST(Factory, ScOnMulticlusterThrows) {
  FakeContext multi({32, 32});
  EXPECT_THROW(make_scheduler(PolicyKind::kSC, expand_policy(PolicyKind::kSC), multi),
               std::invalid_argument);
}

TEST(Factory, SingleClusterPolicyPredicate) {
  EXPECT_TRUE(is_single_cluster_policy(PolicyKind::kSC));
  EXPECT_FALSE(is_single_cluster_policy(PolicyKind::kGS));
  EXPECT_FALSE(is_single_cluster_policy(PolicyKind::kLS));
  EXPECT_FALSE(is_single_cluster_policy(PolicyKind::kLP));
}

}  // namespace
}  // namespace mcsim
