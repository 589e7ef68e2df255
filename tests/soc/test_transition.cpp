// Tests for transition planning (soc/transition): step sequences, ordering
// semantics, and the Table I cost asymmetry.
#include "soc/transition.hpp"

#include <gtest/gtest.h>

#include "soc/platform.hpp"
#include "util/contracts.hpp"

namespace pns::soc {
namespace {

const Platform& xu4() {
  static Platform p = Platform::odroid_xu4();
  return p;
}

TransitionPlanner planner() {
  return TransitionPlanner(xu4().opps, xu4().power, xu4().latency);
}

TEST(TransitionPlanner, EmptyPlanWhenAlreadyThere) {
  OperatingPoint opp{3, {4, 0}};
  EXPECT_TRUE(planner().plan(opp, opp, OrderingPolicy::kCoreFirst).empty());
}

TEST(TransitionPlanner, StepsAreChained) {
  const OperatingPoint from{7, {4, 4}};
  const OperatingPoint to{0, {1, 0}};
  for (auto policy :
       {OrderingPolicy::kCoreFirst, OrderingPolicy::kFreqFirst}) {
    const auto steps = planner().plan(from, to, policy);
    ASSERT_FALSE(steps.empty());
    EXPECT_EQ(steps.front().from, from);
    EXPECT_EQ(steps.back().to, to);
    for (std::size_t i = 1; i < steps.size(); ++i)
      EXPECT_EQ(steps[i].from, steps[i - 1].to) << "discontinuity at " << i;
  }
}

TEST(TransitionPlanner, StepCountFullDescent) {
  // 7 core removals + 7 frequency levels.
  const auto steps = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                    OrderingPolicy::kCoreFirst);
  EXPECT_EQ(steps.size(), 14u);
}

TEST(TransitionPlanner, CoreFirstOrderingSequence) {
  const auto steps = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                    OrderingPolicy::kCoreFirst);
  // First 7 steps are hot-plugs, last 7 are DVFS.
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(steps[i].kind, TransitionKind::kHotplug) << i;
  for (std::size_t i = 7; i < 14; ++i)
    EXPECT_EQ(steps[i].kind, TransitionKind::kDvfs) << i;
}

TEST(TransitionPlanner, FreqFirstOrderingSequence) {
  const auto steps = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                    OrderingPolicy::kFreqFirst);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(steps[i].kind, TransitionKind::kDvfs) << i;
  for (std::size_t i = 7; i < 14; ++i)
    EXPECT_EQ(steps[i].kind, TransitionKind::kHotplug) << i;
}

TEST(TransitionPlanner, ShrinkRemovesBigCoresFirst) {
  const auto steps = planner().plan({7, {4, 2}}, {7, {2, 0}},
                                    OrderingPolicy::kCoreFirst);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].to.cores, (CoreConfig{4, 1}));
  EXPECT_EQ(steps[1].to.cores, (CoreConfig{4, 0}));
  EXPECT_EQ(steps[2].to.cores, (CoreConfig{3, 0}));
  EXPECT_EQ(steps[3].to.cores, (CoreConfig{2, 0}));
}

TEST(TransitionPlanner, GrowAddsLittleCoresFirst) {
  const auto steps = planner().plan({0, {2, 0}}, {0, {4, 1}},
                                    OrderingPolicy::kCoreFirst);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].to.cores, (CoreConfig{3, 0}));
  EXPECT_EQ(steps[1].to.cores, (CoreConfig{4, 0}));
  EXPECT_EQ(steps[2].to.cores, (CoreConfig{4, 1}));
}

TEST(TransitionPlanner, StepPowerIsWorstOfEndpointsPlusOverhead) {
  const auto steps = planner().plan({7, {4, 4}}, {7, {4, 3}},
                                    OrderingPolicy::kCoreFirst);
  ASSERT_EQ(steps.size(), 1u);
  const double p_from = xu4().power.board_power(steps[0].from, xu4().opps);
  const double p_to = xu4().power.board_power(steps[0].to, xu4().opps);
  EXPECT_DOUBLE_EQ(steps[0].power_w,
                   std::max(p_from, p_to) +
                       xu4().latency.params().hotplug_power_overhead_w);
}

TEST(TransitionPlanner, DvfsStepPowerHasNoHotplugOverhead) {
  const auto steps = planner().plan_dvfs_jump({7, {4, 4}}, 6);
  ASSERT_EQ(steps.size(), 1u);
  const double p_from = xu4().power.board_power(steps[0].from, xu4().opps);
  const double p_to = xu4().power.board_power(steps[0].to, xu4().opps);
  EXPECT_DOUBLE_EQ(steps[0].power_w, std::max(p_from, p_to));
}

TEST(TransitionPlanner, TableOneCoreFirstMuchCheaper) {
  // The headline Table I result: core-first completes ~5x faster and
  // spends several-fold less charge than freq-first.
  const auto a = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                OrderingPolicy::kFreqFirst);
  const auto b = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                OrderingPolicy::kCoreFirst);
  const double t_a = TransitionPlanner::total_duration(a);
  const double t_b = TransitionPlanner::total_duration(b);
  const double q_a = TransitionPlanner::total_charge(a, 4.1);
  const double q_b = TransitionPlanner::total_charge(b, 4.1);
  EXPECT_GT(t_a / t_b, 2.5);
  EXPECT_GT(q_a / q_b, 2.5);
  // Absolute scales in the Table I ballpark (hundreds vs tens of ms).
  EXPECT_GT(t_a, 0.15);
  EXPECT_LT(t_b, 0.15);
}

TEST(TransitionPlanner, ChargeConsistentWithEnergy) {
  const auto steps = planner().plan({7, {4, 4}}, {0, {1, 0}},
                                    OrderingPolicy::kCoreFirst);
  const double q = TransitionPlanner::total_charge(steps, 5.0);
  double e = 0.0;
  for (const auto& s : steps) e += s.power_w * s.duration_s;
  EXPECT_NEAR(q, e / 5.0, 1e-12);
}

TEST(TransitionPlanner, DvfsJumpSingleStep) {
  const auto steps = planner().plan_dvfs_jump({7, {4, 4}}, 0);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].kind, TransitionKind::kDvfs);
  EXPECT_EQ(steps[0].from.freq_index, 7u);
  EXPECT_EQ(steps[0].to.freq_index, 0u);
  EXPECT_EQ(steps[0].to.cores, (CoreConfig{4, 4}));
  EXPECT_TRUE(planner().plan_dvfs_jump({3, {4, 0}}, 3).empty());
}

TEST(TransitionPlanner, TotalChargeRejectsBadVoltage) {
  const auto steps = planner().plan_dvfs_jump({7, {4, 4}}, 0);
  EXPECT_THROW(TransitionPlanner::total_charge(steps, 0.0),
               pns::ContractViolation);
}

TEST(OrderingPolicy, Names) {
  EXPECT_STREQ(to_string(OrderingPolicy::kCoreFirst), "core-first");
  EXPECT_STREQ(to_string(OrderingPolicy::kFreqFirst), "freq-first");
}

// Property: for any pair of OPPs and either policy, the plan is a valid
// chain ending at the target, with positive step durations.
class PlanProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanProperty, ChainValidity) {
  const auto [nl, nb, fi] = GetParam();
  const OperatingPoint from{7, {4, 4}};
  const OperatingPoint to{static_cast<std::size_t>(fi), {nl, nb}};
  for (auto policy :
       {OrderingPolicy::kCoreFirst, OrderingPolicy::kFreqFirst}) {
    const auto steps = planner().plan(from, to, policy);
    OperatingPoint cur = from;
    for (const auto& s : steps) {
      EXPECT_EQ(s.from, cur);
      EXPECT_GT(s.duration_s, 0.0);
      EXPECT_GT(s.power_w, 0.0);
      cur = s.to;
    }
    EXPECT_EQ(cur, to);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Targets, PlanProperty,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(0, 2, 4),
                       ::testing::Values(0, 4, 7)));

}  // namespace
}  // namespace pns::soc
