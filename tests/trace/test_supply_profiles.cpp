// Tests for supply profiles (trace/supply_profiles) and trace persistence
// (trace/trace_io).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "trace/supply_profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/contracts.hpp"

namespace pns::trace {
namespace {

TEST(SupplyProfile, EmptyProfileIsConstant) {
  SupplyProfile p(5.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.at(100.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 0.0);
}

TEST(SupplyProfile, HoldKeepsValue) {
  SupplyProfile p(5.0);
  p.hold(10.0);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 10.0);
}

TEST(SupplyProfile, RampInterpolates) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 10.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.at(10.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(20.0), 6.0);  // clamps to final value
}

TEST(SupplyProfile, StepIsInstant) {
  SupplyProfile p(4.0);
  p.hold(1.0).step_to(5.5).hold(1.0);
  EXPECT_DOUBLE_EQ(p.at(0.5), 4.0);
  EXPECT_DOUBLE_EQ(p.at(1.0), 5.5);
  EXPECT_DOUBLE_EQ(p.at(1.5), 5.5);
}

TEST(SupplyProfile, SineOscillatesAroundEntryValue) {
  SupplyProfile p(5.0);
  p.sine(1.0, 4.0, 8.0);  // amplitude 1, period 4, two cycles
  EXPECT_NEAR(p.at(0.0), 5.0, 1e-12);
  EXPECT_NEAR(p.at(1.0), 6.0, 1e-12);
  EXPECT_NEAR(p.at(3.0), 4.0, 1e-12);
  EXPECT_NEAR(p.at(4.0), 5.0, 1e-9);
}

TEST(SupplyProfile, SegmentsChainContinuously) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 2.0).hold(1.0).ramp_to(5.0, 2.0);
  EXPECT_DOUBLE_EQ(p.at(2.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(3.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(4.0), 5.5);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 5.0);
}

TEST(SupplyProfile, AsFunctionSnapshotsState) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 2.0);
  auto f = p.as_function();
  p.step_to(0.0);  // later mutation must not affect the snapshot
  EXPECT_DOUBLE_EQ(f(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f(2.0), 6.0);
}

TEST(SupplyProfile, RejectsNegativeDurations) {
  SupplyProfile p(4.0);
  EXPECT_THROW(p.hold(-1.0), pns::ContractViolation);
  EXPECT_THROW(p.ramp_to(5.0, -1.0), pns::ContractViolation);
  EXPECT_THROW(p.sine(1.0, 0.0, 1.0), pns::ContractViolation);
}

TEST(TraceIo, RoundTripsSeries) {
  pns::TimeSeries ts;
  ts.append(0.0, 1.5);
  ts.append(1.0, 2.5);
  ts.append(2.0, -0.5);
  const std::string path = ::testing::TempDir() + "/pns_trace_rt.csv";
  ASSERT_TRUE(save_trace_csv(path, ts));
  auto loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded(0.0), 1.5);
  EXPECT_DOUBLE_EQ(loaded(0.5), 2.0);
  EXPECT_DOUBLE_EQ(loaded(2.0), -0.5);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadsHeaderlessCsv) {
  const std::string path = ::testing::TempDir() + "/pns_trace_nh.csv";
  {
    std::ofstream f(path);
    f << "0,1\n1,2\n";
  }
  auto loaded = load_trace_csv(path);
  EXPECT_DOUBLE_EQ(loaded(0.5), 1.5);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadsUnsortedRowsInTimeOrder) {
  const std::string path = ::testing::TempDir() + "/pns_trace_unsorted.csv";
  {
    std::ofstream f(path);
    f << "t,value\n2,20\n0,0\n3,35\n1,10\n";
  }
  auto loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.xs(), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(loaded.ys(), (std::vector<double>{0.0, 10.0, 20.0, 35.0}));
  std::remove(path.c_str());
}

TEST(TraceIo, DuplicateTimeThrows) {
  const std::string path = ::testing::TempDir() + "/pns_trace_dup.csv";
  {
    std::ofstream f(path);
    f << "t,value\n1,10\n0,0\n1,11\n";
  }
  EXPECT_THROW(load_trace_csv(path), pns::ContractViolation);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/path/file.csv"),
               std::runtime_error);
}

TEST(TraceIo, MalformedLineThrows) {
  const std::string path = ::testing::TempDir() + "/pns_trace_bad.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,1\nnot-a-number,2\n";
  }
  EXPECT_THROW(load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, TooFewSamplesThrows) {
  const std::string path = ::testing::TempDir() + "/pns_trace_short.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,1\n";
  }
  EXPECT_THROW(load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pns::trace
