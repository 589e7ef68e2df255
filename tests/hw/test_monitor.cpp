// Tests for the two-channel threshold monitor (hw/monitor): programmable
// range, quantisation, and edge reporting.
#include "hw/monitor.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace pns::hw {
namespace {

TEST(ThresholdChannel, RangeCoversBoardWindow) {
  ThresholdChannel ch;
  // The ODROID XU4 operates 4.1-5.7 V; the channel must reach past both.
  EXPECT_LT(ch.min_threshold(), 4.1);
  EXPECT_GT(ch.max_threshold(), 5.7);
}

TEST(ThresholdChannel, ThresholdMonotoneDecreasingInCode) {
  ThresholdChannel ch;
  double prev = 1e9;
  for (int c = 0; c < Mcp4131::kSteps; ++c) {
    const double th = ch.threshold_for_code(c);
    EXPECT_LT(th, prev);
    prev = th;
  }
}

TEST(ThresholdChannel, SetThresholdQuantisesClosely) {
  ThresholdChannel ch;
  for (double target = 4.2; target <= 5.6; target += 0.1) {
    const double got = ch.set_threshold(target, 5.0);
    EXPECT_NEAR(got, target, 0.02) << "target " << target;  // <20 mV
    EXPECT_DOUBLE_EQ(got, ch.threshold());
  }
}

TEST(ThresholdChannel, SeedingPreventsSelfTrigger) {
  ThresholdChannel ch;
  ch.set_threshold(5.0, 5.5);  // node above threshold
  EXPECT_TRUE(ch.output());
  ch.set_threshold(5.2, 5.5);  // still above
  EXPECT_TRUE(ch.output());
  ch.set_threshold(5.0, 4.5);  // node below threshold
  EXPECT_FALSE(ch.output());
}

TEST(ThresholdChannel, TripsBracketThreshold) {
  ThresholdChannel ch;
  ch.set_threshold(5.0, 5.5);
  EXPECT_GT(ch.node_rising_trip(), ch.threshold() - 0.01);
  EXPECT_LT(ch.node_falling_trip(), ch.node_rising_trip());
}

TEST(ThresholdChannel, SampleFollowsHysteresis) {
  ThresholdChannel ch;
  ch.set_threshold(5.0, 5.5);
  EXPECT_TRUE(ch.sample(5.4));
  EXPECT_FALSE(ch.sample(ch.node_falling_trip() - 0.01));
  // Inside the hysteresis band: holds low.
  EXPECT_FALSE(ch.sample(ch.threshold()));
  EXPECT_TRUE(ch.sample(ch.node_rising_trip() + 0.01));
}

TEST(ThresholdChannel, ProgramTimeMicroseconds) {
  ThresholdChannel ch;
  EXPECT_GT(ch.program_time(), 0.0);
  EXPECT_LT(ch.program_time(), 1e-3);
}

TEST(VoltageMonitor, SetThresholdsReturnsAchievedPair) {
  VoltageMonitor m;
  const auto [lo, hi] = m.set_thresholds(4.8, 5.2, 5.0);
  EXPECT_NEAR(lo, 4.8, 0.02);
  EXPECT_NEAR(hi, 5.2, 0.02);
  EXPECT_LT(lo, hi);
  EXPECT_DOUBLE_EQ(m.low_threshold(), lo);
  EXPECT_DOUBLE_EQ(m.high_threshold(), hi);
}

TEST(VoltageMonitor, RejectsInvertedThresholds) {
  VoltageMonitor m;
  EXPECT_THROW(m.set_thresholds(5.2, 4.8, 5.0), pns::ContractViolation);
}

TEST(VoltageMonitor, ReportsLowFallingEdge) {
  VoltageMonitor m;
  m.set_thresholds(4.8, 5.2, 5.0);
  EXPECT_FALSE(m.sample(5.0).has_value());
  auto edge = m.sample(4.6);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(*edge, MonitorEdge::kLowFalling);
}

TEST(VoltageMonitor, ReportsHighRisingEdge) {
  VoltageMonitor m;
  m.set_thresholds(4.8, 5.2, 5.0);
  auto edge = m.sample(5.4);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(*edge, MonitorEdge::kHighRising);
}

TEST(VoltageMonitor, ReportsReArmEdges) {
  VoltageMonitor m;
  m.set_thresholds(4.8, 5.2, 5.0);
  ASSERT_TRUE(m.sample(4.6).has_value());  // low falling
  auto edge = m.sample(5.0);               // back inside the window
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(*edge, MonitorEdge::kLowRising);

  ASSERT_TRUE(m.sample(5.4).has_value());  // high rising
  edge = m.sample(5.0);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(*edge, MonitorEdge::kHighFalling);
}

TEST(VoltageMonitor, NoEdgeWhenStable) {
  VoltageMonitor m;
  m.set_thresholds(4.8, 5.2, 5.0);
  EXPECT_FALSE(m.sample(5.0).has_value());
  EXPECT_FALSE(m.sample(5.05).has_value());
  EXPECT_FALSE(m.sample(4.95).has_value());
}

TEST(VoltageMonitor, PowerDrawMatchesPaper) {
  // 1.61 mW measured in the paper (Section V.D).
  EXPECT_DOUBLE_EQ(VoltageMonitor::kPowerW, 1.61e-3);
}

TEST(MonitorEdgeNames, ToString) {
  EXPECT_STREQ(to_string(MonitorEdge::kLowFalling), "low-falling");
  EXPECT_STREQ(to_string(MonitorEdge::kHighRising), "high-rising");
}

// Property: for any programmed pair, a full sweep down and back up yields
// exactly one low-falling and one low-rising edge from the low channel.
class MonitorSweep : public ::testing::TestWithParam<double> {};

TEST_P(MonitorSweep, OneEdgePairPerExcursion) {
  VoltageMonitor m;
  const double centre = GetParam();
  m.set_thresholds(centre - 0.2, centre + 0.2, centre);
  int low_falling = 0, low_rising = 0;
  for (double v = centre; v > centre - 0.6; v -= 0.01) {
    auto e = m.sample(v);
    if (e && *e == MonitorEdge::kLowFalling) ++low_falling;
  }
  for (double v = centre - 0.6; v < centre; v += 0.01) {
    auto e = m.sample(v);
    if (e && *e == MonitorEdge::kLowRising) ++low_rising;
  }
  EXPECT_EQ(low_falling, 1);
  EXPECT_EQ(low_rising, 1);
}

INSTANTIATE_TEST_SUITE_P(Centres, MonitorSweep,
                         ::testing::Values(4.6, 4.9, 5.2, 5.4));

}  // namespace
}  // namespace pns::hw
