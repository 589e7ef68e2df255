// Tests for the Linux-style governor baselines (governors/*).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "governors/conservative.hpp"
#include "governors/interactive.hpp"
#include "governors/ondemand.hpp"
#include "governors/performance.hpp"
#include "governors/powersave.hpp"
#include "governors/registry.hpp"
#include "governors/userspace.hpp"
#include "soc/platform.hpp"

namespace pns::gov {
namespace {

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

GovernorContext ctx(double t, double util, std::size_t fi,
                    soc::CoreConfig cores = {4, 4}) {
  return GovernorContext{t, util, soc::OperatingPoint{fi, cores}};
}

TEST(PerformanceGovernor, AlwaysMaxFrequency) {
  PerformanceGovernor g(xu4());
  EXPECT_EQ(g.decide(ctx(0.0, 1.0, 0)).freq_index, xu4().opps.max_index());
  EXPECT_EQ(g.decide(ctx(1.0, 0.0, 3)).freq_index, xu4().opps.max_index());
}

TEST(PowersaveGovernor, AlwaysMinFrequency) {
  PowersaveGovernor g(xu4());
  EXPECT_EQ(g.decide(ctx(0.0, 1.0, 7)).freq_index, xu4().opps.min_index());
}

TEST(GovernorsPreserveCoreConfig, NoHotplug) {
  PerformanceGovernor g(xu4());
  const auto out = g.decide(ctx(0.0, 1.0, 0, {2, 1}));
  EXPECT_EQ(out.cores, (soc::CoreConfig{2, 1}));
}

TEST(UserspaceGovernor, HoldsSetSpeed) {
  UserspaceGovernor g(xu4());
  g.set_frequency_index(3);
  EXPECT_EQ(g.decide(ctx(0.0, 1.0, 7)).freq_index, 3u);
  g.set_frequency_index(99);  // clamps
  EXPECT_EQ(g.frequency_index(), xu4().opps.max_index());
}

TEST(OndemandGovernor, JumpsToMaxAboveThreshold) {
  OndemandGovernor g(xu4());
  EXPECT_EQ(g.decide(ctx(0.0, 1.0, 0)).freq_index, xu4().opps.max_index());
  EXPECT_EQ(g.decide(ctx(0.1, 0.97, 2)).freq_index, xu4().opps.max_index());
}

TEST(OndemandGovernor, ScalesDownProportionally) {
  OndemandGovernor g(xu4());
  // At max frequency with 30 % utilisation, the proportional target is
  // well below max: expect a much lower ladder index.
  const auto out = g.decide(ctx(0.0, 0.30, xu4().opps.max_index()));
  EXPECT_LT(out.freq_index, 4u);
  EXPECT_GE(xu4().opps.frequency(out.freq_index),
            1.4e9 * 0.30 / 0.95 - 1e6);  // enough capacity for the load
}

TEST(OndemandGovernor, SamplingDownFactorDelaysDrop) {
  OndemandParams p;
  p.sampling_down_factor = 3;
  OndemandGovernor g(xu4(), p);
  // Two low samples: hold; third: drop.
  EXPECT_EQ(g.decide(ctx(0.0, 0.2, 7)).freq_index, 7u);
  EXPECT_EQ(g.decide(ctx(0.1, 0.2, 7)).freq_index, 7u);
  EXPECT_LT(g.decide(ctx(0.2, 0.2, 7)).freq_index, 7u);
}

TEST(ConservativeGovernor, StepsUpGradually) {
  ConservativeGovernor g(xu4());
  std::size_t fi = 0;
  for (int i = 0; i < 3; ++i) fi = g.decide(ctx(i * 0.1, 1.0, fi)).freq_index;
  EXPECT_EQ(fi, 3u);  // one step per decision
}

TEST(ConservativeGovernor, StepsDownWhenIdle) {
  ConservativeGovernor g(xu4());
  EXPECT_EQ(g.decide(ctx(0.0, 0.1, 5)).freq_index, 4u);
}

TEST(ConservativeGovernor, HoldsInDeadband) {
  ConservativeGovernor g(xu4());
  EXPECT_EQ(g.decide(ctx(0.0, 0.5, 5)).freq_index, 5u);
}

TEST(ConservativeGovernor, FreqStepParameter) {
  ConservativeParams p;
  p.freq_step = 2;
  ConservativeGovernor g(xu4(), p);
  EXPECT_EQ(g.decide(ctx(0.0, 1.0, 0)).freq_index, 2u);
}

TEST(InteractiveGovernor, JumpsToHispeedOnLoadSpike) {
  InteractiveGovernor g(xu4());
  const auto out = g.decide(ctx(0.0, 1.0, 0));
  const double hispeed = xu4().opps.frequency(out.freq_index);
  EXPECT_NEAR(hispeed, 1.4e9 * 0.75, 0.15e9);
}

TEST(InteractiveGovernor, ClimbsAfterHispeedDelay) {
  InteractiveGovernor g(xu4());
  auto out = g.decide(ctx(0.0, 1.0, 0));       // jump to hispeed
  const auto hispeed_idx = out.freq_index;
  out = g.decide(ctx(0.005, 1.0, out.freq_index));  // within delay: hold
  EXPECT_EQ(out.freq_index, hispeed_idx);
  out = g.decide(ctx(0.05, 1.0, out.freq_index));   // past delay: climb
  EXPECT_GT(out.freq_index, hispeed_idx);
}

TEST(InteractiveGovernor, WaitsMinSampleTimeBeforeDropping) {
  InteractiveGovernor g(xu4());
  auto out = g.decide(ctx(0.0, 0.2, 5));  // light load starts clock
  EXPECT_EQ(out.freq_index, 5u);
  out = g.decide(ctx(0.02, 0.2, 5));  // still within min_sample_time
  EXPECT_EQ(out.freq_index, 5u);
  out = g.decide(ctx(0.2, 0.2, 5));  // past it: drops
  EXPECT_LT(out.freq_index, 5u);
}

TEST(Registry, BuildsEveryAdvertisedGovernor) {
  for (const auto& name : available_governors()) {
    auto g = make_governor(name, xu4());
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->name(), name);
    EXPECT_GT(g->sampling_period(), 0.0);
  }
}

TEST(Registry, UnknownNameThrowsListingValidNames) {
  try {
    make_governor("warp-speed", xu4());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'warp-speed'"), std::string::npos);
    for (const auto& name : available_governors())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
  EXPECT_THROW(governor_params("warp-speed"), std::invalid_argument);
}

TEST(Registry, ParamMapOverloadTunesGovernors) {
  const auto g = make_governor("ondemand", xu4(),
                               pns::ParamMap::parse("period=0.05,"
                                                    "up_threshold=0.5"));
  EXPECT_DOUBLE_EQ(g->sampling_period(), 0.05);
  // up_threshold=0.5: 60 % utilisation now jumps to max.
  EXPECT_EQ(g->decide({0.0, 0.6, {2, {4, 4}}}).freq_index,
            xu4().opps.max_index());

  const auto c = make_governor("conservative", xu4(),
                               pns::ParamMap::parse("freq_step=2"));
  EXPECT_EQ(c->decide({0.0, 1.0, {0, {4, 4}}}).freq_index, 2u);

  const auto u = make_governor("userspace", xu4(),
                               pns::ParamMap::parse("index=3"));
  EXPECT_EQ(u->decide({0.0, 1.0, {7, {4, 4}}}).freq_index, 3u);
}

TEST(Registry, ParamMapOverloadRejectsUnknownKeysListingValid) {
  try {
    make_governor("ondemand", xu4(), pns::ParamMap::parse("perod=0.05"));
    FAIL() << "expected ParamError";
  } catch (const pns::ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'perod'"), std::string::npos);
    EXPECT_NE(what.find("period"), std::string::npos);
    EXPECT_NE(what.find("up_threshold"), std::string::npos);
  }
  // Fixed-frequency governors take no params at all.
  try {
    make_governor("powersave", xu4(), pns::ParamMap::parse("period=0.05"));
    FAIL() << "expected ParamError";
  } catch (const pns::ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("no params"), std::string::npos);
  }
}

TEST(Registry, EveryAdvertisedParamHasTypeAndDefault) {
  for (const auto& name : available_governors()) {
    for (const auto& p : governor_params(name)) {
      EXPECT_FALSE(p.key.empty()) << name;
      EXPECT_FALSE(p.type.empty()) << name << "." << p.key;
      EXPECT_FALSE(p.help.empty()) << name << "." << p.key;
    }
  }
}

TEST(Registry, TableTwoGovernorsPresent) {
  const auto names = available_governors();
  for (const char* needed :
       {"performance", "powersave", "ondemand", "conservative",
        "interactive"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), needed), names.end())
        << needed;
  }
}

}  // namespace
}  // namespace pns::gov
