// Tests for the control policies (core/dvfs_policy, core/hotplug_policy):
// the one-step DVFS ladder, the Fig. 5 exclusive decision, and bounded
// application.
#include <gtest/gtest.h>

#include "core/dvfs_policy.hpp"
#include "core/hotplug_policy.hpp"
#include "soc/platform.hpp"
#include "util/contracts.hpp"

namespace pns::ctl {
namespace {

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

DerivativeHotplugPolicy policy() {
  // The paper's simulation-derived optimum: alpha 0.120, beta 0.479 V/s.
  return DerivativeHotplugPolicy({0.120, 0.479});
}

TEST(LinearDvfsPolicy, OneStepEachWay) {
  LinearDvfsPolicy p;
  EXPECT_EQ(p.next_index(xu4().opps, 4, ScaleDirection::kDown), 3u);
  EXPECT_EQ(p.next_index(xu4().opps, 4, ScaleDirection::kUp), 5u);
}

TEST(LinearDvfsPolicy, SaturatesAtLadderEnds) {
  LinearDvfsPolicy p;
  EXPECT_EQ(p.next_index(xu4().opps, 0, ScaleDirection::kDown), 0u);
  EXPECT_EQ(p.next_index(xu4().opps, 7, ScaleDirection::kUp), 7u);
}

TEST(HotplugPolicy, DecideBigOnFastCrossing) {
  // tau < Vq/beta -> big. Vq = 47.9 mV, beta = 0.479 -> Vq/beta = 0.1 s.
  auto s = policy().decide(0.05, 0.0479, ScaleDirection::kDown);
  EXPECT_EQ(s.s_big, -1);
  EXPECT_EQ(s.s_little, 0);  // exclusive per the Fig. 5 flowchart
}

TEST(HotplugPolicy, DecideLittleOnModerateCrossing) {
  // Vq/beta = 0.1 s < tau < Vq/alpha = 0.399 s -> LITTLE.
  auto s = policy().decide(0.2, 0.0479, ScaleDirection::kDown);
  EXPECT_EQ(s.s_big, 0);
  EXPECT_EQ(s.s_little, -1);
}

TEST(HotplugPolicy, DecideNoneOnSlowCrossing) {
  auto s = policy().decide(1.0, 0.0479, ScaleDirection::kDown);
  EXPECT_EQ(s.s_big, 0);
  EXPECT_EQ(s.s_little, 0);
}

TEST(HotplugPolicy, DecideDirectionSign) {
  auto s = policy().decide(0.05, 0.0479, ScaleDirection::kUp);
  EXPECT_EQ(s.s_big, 1);
}

TEST(HotplugPolicy, DecideDegenerateTauActsAsBig) {
  auto s = policy().decide(0.0, 0.0479, ScaleDirection::kDown);
  EXPECT_EQ(s.s_big, -1);
}

TEST(HotplugPolicy, DecideBoundaryExactlyAtThreshold) {
  // slope == beta is NOT strictly greater: falls through to LITTLE.
  const double vq = 0.0479;
  const double tau = vq / 0.479;
  auto s = policy().decide(tau, vq, ScaleDirection::kDown);
  EXPECT_EQ(s.s_big, 0);
  EXPECT_EQ(s.s_little, -1);
}

TEST(HotplugPolicy, ApplyAddsAndRemoves) {
  auto next = policy().apply(xu4(), {4, 2}, {.s_big = -1, .s_little = 0});
  EXPECT_EQ(next, (soc::CoreConfig{4, 1}));
  next = policy().apply(xu4(), {3, 0}, {.s_big = 0, .s_little = 1});
  EXPECT_EQ(next, (soc::CoreConfig{4, 0}));
}

TEST(HotplugPolicy, ApplyEscalatesBigToLittle) {
  // Remove-big with no big cores online falls back to a LITTLE removal.
  auto next = policy().apply(xu4(), {3, 0}, {.s_big = -1, .s_little = 0});
  EXPECT_EQ(next, (soc::CoreConfig{2, 0}));
}

TEST(HotplugPolicy, ApplyEscalatesLittleToBig) {
  // Add-LITTLE with the LITTLE cluster full escalates to a big core.
  auto next = policy().apply(xu4(), {4, 1}, {.s_big = 0, .s_little = 1});
  EXPECT_EQ(next, (soc::CoreConfig{4, 2}));
}

TEST(HotplugPolicy, ApplyRespectsHardFloor) {
  // Cannot go below 1 LITTLE / 0 big no matter what.
  auto next = policy().apply(xu4(), {1, 0}, {.s_big = -1, .s_little = -1});
  EXPECT_EQ(next, (soc::CoreConfig{1, 0}));
}

TEST(HotplugPolicy, ApplyRespectsHardCeiling) {
  auto next = policy().apply(xu4(), {4, 4}, {.s_big = 1, .s_little = 1});
  EXPECT_EQ(next, (soc::CoreConfig{4, 4}));
}

TEST(HotplugPolicy, ParamContracts) {
  EXPECT_THROW(DerivativeHotplugPolicy({0.0, 1.0}), pns::ContractViolation);
  EXPECT_THROW(DerivativeHotplugPolicy({0.5, 0.5}), pns::ContractViolation);
  EXPECT_THROW(DerivativeHotplugPolicy({0.5, 0.2}), pns::ContractViolation);
  EXPECT_THROW(policy().decide(1.0, 0.0, ScaleDirection::kUp),
               pns::ContractViolation);
}

TEST(ScaleDirectionNames, ToString) {
  EXPECT_STREQ(to_string(ScaleDirection::kDown), "down");
  EXPECT_STREQ(to_string(ScaleDirection::kUp), "up");
}

// Property: apply() always yields a valid platform configuration.
class ApplySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ApplySweep, AlwaysValid) {
  const auto [nl, nb, sb, sl] = GetParam();
  const auto next =
      policy().apply(xu4(), {nl, nb}, {.s_big = sb, .s_little = sl});
  EXPECT_TRUE(xu4().valid_cores(next))
      << "from " << soc::CoreConfig{nl, nb}.to_string() << " -> "
      << next.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllMoves, ApplySweep,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(0, 1, 4),
                       ::testing::Values(-1, 0, 1),
                       ::testing::Values(-1, 0, 1)));

}  // namespace
}  // namespace pns::ctl
