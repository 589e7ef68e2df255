// Tests for piecewise-linear interpolation (util/interp).
#include "util/interp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace pns {
namespace {

PiecewiseLinear ramp() { return PiecewiseLinear({0.0, 1.0, 3.0}, {0.0, 2.0, 2.0}); }

TEST(PiecewiseLinear, RejectsBadKnots) {
  EXPECT_THROW(PiecewiseLinear({}, {}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({1.0, 0.0}, {1.0, 2.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0, 1.0}, {1.0}), ContractViolation);
}

TEST(PiecewiseLinear, EvaluatesAtKnots) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(3.0), 2.0);
}

TEST(PiecewiseLinear, InterpolatesBetweenKnots) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 2.0);
}

TEST(PiecewiseLinear, ClampsOutsideRange) {
  auto f = ramp();
  EXPECT_DOUBLE_EQ(f(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(f(99.0), 2.0);
}

TEST(PiecewiseLinear, EvalHintedBitIdenticalToOperator) {
  // Compare hinted vs plain evaluation -- eval_hinted against operator()
  // and flat_until_hinted against flat_until -- for forward sweeps,
  // backward sweeps, random jumps, exact knots and a stale hint. The
  // contract is bit-identity, so EXPECT_EQ on the doubles.
  auto sweep_all = [](const std::vector<double>& xs,
                      const std::vector<double>& ys) {
    const PiecewiseLinear f(xs, ys);
    const double x_end = xs.back();
    std::size_t hint = 0, hint2 = 0;
    auto check = [&](double q) {
      EXPECT_EQ(f.eval_hinted(q, hint), f(q));
      EXPECT_EQ(f.flat_until_hinted(q, hint2), f.flat_until(q));
    };
    for (double q = -0.5; q < x_end + 0.5; q += 0.0137) check(q);  // fwd
    for (double q = x_end + 0.5; q > -0.5; q -= 0.0213) check(q);  // back
    for (int i = 0; i < 200; ++i)                                  // jumps
      check(std::fmod(i * 2.718281828, x_end));
    for (double q : xs) check(q);                                  // knots
    hint = hint2 = 9999;                                           // stale
    check(1.0);
  };

  // An irregular function with no level segments...
  std::vector<double> xs, ys;
  double x = 0.0;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x);
    ys.push_back(std::sin(0.7 * i) + 0.01 * i);
    x += 0.1 + 0.03 * (i % 5);
  }
  sweep_all(xs, ys);

  // ...and one of level runs of uneven length joined by single-segment
  // ramps, starting and ending level, so flat_until has runs to end
  // (and an unbounded last run).
  ys.clear();
  int level = 0;
  for (int i = 0; i < 64; ++i) {
    if (i % 7 == 3 || i % 11 == 0) ++level;
    ys.push_back(static_cast<double>(level % 4));
  }
  sweep_all(xs, ys);
}

TEST(PiecewiseLinear, ScaledMultipliesValues) {
  auto f = ramp().scaled(3.0);
  EXPECT_DOUBLE_EQ(f(1.0), 6.0);
  EXPECT_DOUBLE_EQ(f(0.5), 3.0);
}

TEST(PiecewiseLinear, ScaledInPlaceMatchesScaledCopy) {
  const auto f = ramp();
  const auto copy = f.scaled(0.3);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);  // the copy left its source alone
  auto g = ramp();
  const auto moved = std::move(g).scaled(0.3);
  EXPECT_EQ(moved.xs(), copy.xs());
  EXPECT_EQ(moved.ys(), copy.ys());
}

TEST(PiecewiseLinear, SingleKnotBehavesAsConstant) {
  PiecewiseLinear f({2.0}, {7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 7.0);
  EXPECT_DOUBLE_EQ(f(5.0), 7.0);
}

TEST(PiecewiseLinear, FlatUntilWalksLevelRuns) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  //            sloped      flat run          sloped   flat tail
  PiecewiseLinear f({0.0, 1.0, 2.0, 3.0, 4.0, 5.0},
                    {0.0, 2.0, 2.0, 2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(f.flat_until(0.5), 0.5);   // inside a sloped segment
  EXPECT_DOUBLE_EQ(f.flat_until(1.0), 3.0);   // start of the level run
  EXPECT_DOUBLE_EQ(f.flat_until(2.5), 3.0);   // inside the level run
  EXPECT_DOUBLE_EQ(f.flat_until(3.5), 3.5);   // sloped again
  EXPECT_DOUBLE_EQ(f.flat_until(4.2), kInf);  // level to the end + clamp
  EXPECT_DOUBLE_EQ(f.flat_until(9.0), kInf);  // clamped extrapolation
  EXPECT_DOUBLE_EQ(f.flat_until(-2.0), 0.0);  // clamped region before
}

TEST(PiecewiseLinear, FlatUntilOnConstantAndSingleKnot) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PiecewiseLinear flat({0.0, 1.0, 2.0}, {3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(flat.flat_until(0.0), kInf);
  EXPECT_DOUBLE_EQ(flat.flat_until(1.5), kInf);
  PiecewiseLinear single({2.0}, {7.0});
  EXPECT_DOUBLE_EQ(single.flat_until(0.0), kInf);
  EXPECT_DOUBLE_EQ(single.flat_until(5.0), kInf);
}

class InterpLinearityProperty : public ::testing::TestWithParam<double> {};

// Property: for any query point inside a segment, the interpolated value
// lies between the segment endpoint values.
TEST_P(InterpLinearityProperty, ValueBoundedByEndpoints) {
  auto f = PiecewiseLinear({0.0, 1.0, 2.0, 4.0}, {1.0, -3.0, 5.0, 0.0});
  const double x = GetParam();
  const double y = f(x);
  EXPECT_GE(y, -3.0);
  EXPECT_LE(y, 5.0);
}

INSTANTIATE_TEST_SUITE_P(QueryPoints, InterpLinearityProperty,
                         ::testing::Values(0.0, 0.3, 0.9, 1.0, 1.5, 2.7,
                                           3.999, 4.0));

}  // namespace
}  // namespace pns
