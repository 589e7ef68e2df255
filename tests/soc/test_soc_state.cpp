// Tests for the SoC runtime state machine (soc/soc_state).
#include "soc/soc_state.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(SocRuntime, InitialState) {
  SocRuntime soc(xu4(), {3, {4, 1}});
  EXPECT_TRUE(soc.is_on());
  EXPECT_FALSE(soc.transitioning());
  EXPECT_EQ(soc.opp(), (OperatingPoint{3, {4, 1}}));
  EXPECT_EQ(soc.final_target(), soc.opp());
  EXPECT_TRUE(std::isinf(soc.next_boundary()));
}

TEST(SocRuntime, RejectsInvalidInitialOpp) {
  EXPECT_THROW(SocRuntime(xu4(), {99, {1, 0}}), pns::ContractViolation);
  EXPECT_THROW(SocRuntime(xu4(), {0, {0, 0}}), pns::ContractViolation);
  EXPECT_THROW(SocRuntime(xu4(), {0, {5, 0}}), pns::ContractViolation);
}

TEST(SocRuntime, PowerMatchesModelWhenIdle) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  EXPECT_DOUBLE_EQ(soc.power(1.0),
                   xu4().power.board_power({7, {4, 4}}, xu4().opps, 1.0));
}

TEST(SocRuntime, PlanExecutesStepByStep) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  auto plan = planner().plan({7, {4, 4}}, {7, {4, 2}},
                             OrderingPolicy::kCoreFirst);
  ASSERT_EQ(plan.size(), 2u);
  const double d0 = plan[0].duration_s;
  const double d1 = plan[1].duration_s;
  soc.enqueue_plan(std::move(plan), 10.0);
  EXPECT_TRUE(soc.transitioning());
  EXPECT_EQ(soc.final_target(), (OperatingPoint{7, {4, 2}}));
  EXPECT_NEAR(soc.next_boundary(), 10.0 + d0, 1e-12);
  // Live OPP is still the starting one until the step completes.
  EXPECT_EQ(soc.opp(), (OperatingPoint{7, {4, 4}}));

  soc.complete_step(10.0 + d0);
  EXPECT_EQ(soc.opp(), (OperatingPoint{7, {4, 3}}));
  EXPECT_NEAR(soc.next_boundary(), 10.0 + d0 + d1, 1e-12);

  soc.complete_step(10.0 + d0 + d1);
  EXPECT_EQ(soc.opp(), (OperatingPoint{7, {4, 2}}));
  EXPECT_FALSE(soc.transitioning());
  EXPECT_EQ(soc.transitions_completed(), 2u);
}

TEST(SocRuntime, PowerDuringStepIsStepPower) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  auto plan = planner().plan({7, {4, 4}}, {7, {4, 3}},
                             OrderingPolicy::kCoreFirst);
  const double p_step = plan[0].power_w;
  soc.enqueue_plan(std::move(plan), 0.0);
  EXPECT_DOUBLE_EQ(soc.power(1.0), p_step);
}

TEST(SocRuntime, InstructionRateDeratedDuringHotplug) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  const double idle_rate = soc.instruction_rate(1.0);
  auto plan = planner().plan({7, {4, 4}}, {7, {4, 3}},
                             OrderingPolicy::kCoreFirst);
  soc.enqueue_plan(std::move(plan), 0.0);
  EXPECT_NEAR(soc.instruction_rate(1.0),
              idle_rate * (1.0 - xu4().hotplug_stall), 1e-9);
}

TEST(SocRuntime, EnqueueAppendsToPending) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  soc.enqueue_plan(planner().plan({7, {4, 4}}, {7, {4, 3}},
                                  OrderingPolicy::kCoreFirst),
                   0.0);
  // Second plan must start from the final target of the first.
  soc.enqueue_plan(planner().plan({7, {4, 3}}, {6, {4, 3}},
                                  OrderingPolicy::kCoreFirst),
                   0.0);
  EXPECT_EQ(soc.pending_steps(), 2u);
  EXPECT_EQ(soc.final_target(), (OperatingPoint{6, {4, 3}}));
}

TEST(SocRuntime, EnqueueRejectsDiscontinuousPlan) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  auto wrong = planner().plan({6, {4, 4}}, {5, {4, 4}},
                              OrderingPolicy::kCoreFirst);
  EXPECT_THROW(soc.enqueue_plan(std::move(wrong), 0.0),
               pns::ContractViolation);
}

TEST(SocRuntime, BrownoutLifecycle) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  soc.enqueue_plan(planner().plan({7, {4, 4}}, {7, {4, 3}},
                                  OrderingPolicy::kCoreFirst),
                   0.0);
  soc.power_off(1.0);
  EXPECT_EQ(soc.power_state(), PowerState::kOff);
  EXPECT_FALSE(soc.is_on());
  EXPECT_FALSE(soc.transitioning());  // queue dropped
  EXPECT_EQ(soc.brownouts(), 1u);
  EXPECT_DOUBLE_EQ(soc.power(1.0), xu4().off_power_w);
  EXPECT_DOUBLE_EQ(soc.instruction_rate(1.0), 0.0);

  soc.begin_boot(5.0);
  EXPECT_EQ(soc.power_state(), PowerState::kBooting);
  EXPECT_DOUBLE_EQ(soc.power(1.0), xu4().boot_power_w);
  EXPECT_DOUBLE_EQ(soc.instruction_rate(1.0), 0.0);
  EXPECT_NEAR(soc.boot_complete_time(), 5.0 + xu4().boot_time_s, 1e-12);

  soc.complete_boot(soc.boot_complete_time());
  EXPECT_TRUE(soc.is_on());
  EXPECT_EQ(soc.opp(), xu4().lowest_opp());
}

TEST(SocRuntime, BootContractEnforced) {
  SocRuntime soc(xu4(), {0, {1, 0}});
  EXPECT_THROW(soc.begin_boot(0.0), pns::ContractViolation);  // not off
  soc.power_off(0.0);
  EXPECT_THROW(soc.complete_boot(0.0), pns::ContractViolation);  // not booting
}

TEST(SocRuntime, CannotEnqueueWhileOff) {
  SocRuntime soc(xu4(), {7, {4, 4}});
  soc.power_off(0.0);
  EXPECT_THROW(soc.enqueue_plan(planner().plan({0, {1, 0}}, {1, {1, 0}},
                                               OrderingPolicy::kCoreFirst),
                                0.0),
               pns::ContractViolation);
}

TEST(SocRuntime, CompleteStepRequiresPending) {
  SocRuntime soc(xu4(), {0, {1, 0}});
  EXPECT_THROW(soc.complete_step(0.0), pns::ContractViolation);
}

TEST(PowerStateNames, ToString) {
  EXPECT_STREQ(to_string(PowerState::kOn), "on");
  EXPECT_STREQ(to_string(PowerState::kOff), "off");
  EXPECT_STREQ(to_string(PowerState::kBooting), "booting");
}

TEST(Platform, CoreValidity) {
  EXPECT_TRUE(xu4().valid_cores({1, 0}));
  EXPECT_FALSE(xu4().valid_cores({0, 1}));
}

TEST(Platform, ExtremeOpps) {
  EXPECT_EQ(xu4().lowest_opp(), (OperatingPoint{0, {1, 0}}));
  EXPECT_EQ(xu4().highest_opp(), (OperatingPoint{7, {4, 4}}));
}

}  // namespace
}  // namespace pns::soc
