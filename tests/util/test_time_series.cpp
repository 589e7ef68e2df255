// Tests for the sampled time-series container (util/time_series).
#include "util/time_series.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace pns {
namespace {

TimeSeries make_ramp() {
  TimeSeries ts;
  ts.append(0.0, 0.0);
  ts.append(1.0, 1.0);
  ts.append(2.0, 1.0);
  ts.append(3.0, 0.0);
  return ts;
}

TEST(TimeSeries, AppendRequiresMonotoneTime) {
  TimeSeries ts;
  ts.append(1.0, 0.0);
  ts.append(1.0, 1.0);  // equal is fine (step)
  EXPECT_THROW(ts.append(0.5, 2.0), ContractViolation);
}

TEST(TimeSeries, AtInterpolatesAndClamps) {
  auto ts = make_ramp();
  EXPECT_DOUBLE_EQ(ts.at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(ts.at(1.5), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.at(9.0), 0.0);
}

TEST(TimeSeries, IntegralTrapezoid) {
  auto ts = make_ramp();
  // 0.5 + 1.0 + 0.5
  EXPECT_NEAR(ts.integral(), 2.0, 1e-12);
  EXPECT_NEAR(ts.integral(1.0, 2.0), 1.0, 1e-12);
  EXPECT_NEAR(ts.integral(0.5, 1.5), 0.375 + 0.5, 1e-12);
}

TEST(TimeSeries, DurationAndEndpoints) {
  auto ts = make_ramp();
  EXPECT_DOUBLE_EQ(ts.t_front(), 0.0);
  EXPECT_DOUBLE_EQ(ts.t_back(), 3.0);
  EXPECT_DOUBLE_EQ(ts.duration(), 3.0);
}

TEST(TimeSeries, MinMax) {
  auto ts = make_ramp();
  EXPECT_DOUBLE_EQ(ts.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 1.0);
}

TEST(TimeSeries, EmptyContracts) {
  TimeSeries ts;
  EXPECT_THROW(ts.t_front(), ContractViolation);
  EXPECT_THROW(ts.min_value(), ContractViolation);
  EXPECT_THROW(ts.at(0.0), ContractViolation);
}

}  // namespace
}  // namespace pns
