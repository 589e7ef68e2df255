// Tests for the streaming statistics (util/stats).
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/contracts.hpp"

namespace pns {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.2);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.2);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.2);
  EXPECT_DOUBLE_EQ(s.max(), 4.2);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), 6.2, 1e-12);
  // population variance
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= xs.size();
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStats, WeightedMean) {
  RunningStats s;
  s.add_weighted(1.0, 3.0);
  s.add_weighted(5.0, 1.0);
  EXPECT_NEAR(s.mean(), 2.0, 1e-12);
  EXPECT_NEAR(s.total_weight(), 4.0, 1e-12);
}

TEST(RunningStats, ZeroWeightIgnored) {
  RunningStats s;
  s.add_weighted(100.0, 0.0);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStats, NegativeWeightRejected) {
  RunningStats s;
  EXPECT_THROW(s.add_weighted(1.0, -1.0), ContractViolation);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 3 + i * 0.01;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace pns
