// Tests for stochastic weather synthesis (trace/weather).
#include "trace/weather.hpp"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace pns::trace {
namespace {

double mean_transmittance(WeatherCondition c, std::uint64_t seed) {
  auto trace = synthesize_transmittance(weather_params_for(c), 0.0, 3600.0,
                                        0.1, seed);
  pns::RunningStats s;
  for (double y : trace.ys()) s.add(y);
  return s.mean();
}

TEST(Weather, TransmittanceBounded) {
  for (auto c : {WeatherCondition::kFullSun, WeatherCondition::kPartialSun,
                 WeatherCondition::kCloud, WeatherCondition::kHail}) {
    auto trace = synthesize_transmittance(weather_params_for(c), 0.0,
                                          1800.0, 0.1, 99);
    for (double y : trace.ys()) {
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, 1.0);
    }
  }
}

TEST(Weather, DeterministicForSeed) {
  auto a = synthesize_transmittance(
      weather_params_for(WeatherCondition::kPartialSun), 0.0, 600.0, 0.1, 7);
  auto b = synthesize_transmittance(
      weather_params_for(WeatherCondition::kPartialSun), 0.0, 600.0, 0.1, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.ys()[i], b.ys()[i]);
}

TEST(Weather, DifferentSeedsDiffer) {
  auto a = synthesize_transmittance(
      weather_params_for(WeatherCondition::kPartialSun), 0.0, 600.0, 0.1, 1);
  auto b = synthesize_transmittance(
      weather_params_for(WeatherCondition::kPartialSun), 0.0, 600.0, 0.1, 2);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_diff = std::max(max_diff, std::abs(a.ys()[i] - b.ys()[i]));
  EXPECT_GT(max_diff, 0.05);
}

TEST(Weather, ConditionSeverityOrdering) {
  // Averaged across seeds, brightness ranks full-sun > partial > cloud,
  // and hail darkest of all.
  double full = 0.0, partial = 0.0, cloud = 0.0, hail = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    full += mean_transmittance(WeatherCondition::kFullSun, seed);
    partial += mean_transmittance(WeatherCondition::kPartialSun, seed);
    cloud += mean_transmittance(WeatherCondition::kCloud, seed);
    hail += mean_transmittance(WeatherCondition::kHail, seed);
  }
  EXPECT_GT(full, partial);
  EXPECT_GT(partial, cloud);
  EXPECT_GT(cloud, hail);
}

TEST(Weather, FullSunMostlyBright) {
  EXPECT_GT(mean_transmittance(WeatherCondition::kFullSun, 3), 0.85);
}

TEST(Weather, IrradianceBoundedByEnvelope) {
  ClearSky sky;
  auto g = synthesize_irradiance(sky, WeatherCondition::kPartialSun,
                                 10.0 * 3600.0, 12.0 * 3600.0, 0.5, 11);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_LE(g.ys()[i], sky.irradiance(g.xs()[i]) + 1e-9);
    EXPECT_GE(g.ys()[i], 0.0);
  }
}

TEST(Weather, IrradianceIsEnvelopeTimesTransmittanceBitForBit) {
  // synthesize_irradiance scales the transmittance knots in place; every
  // knot must equal the product formed from a separate transmittance
  // trace, bit for bit.
  ClearSky sky;
  for (auto c : all_weather_conditions()) {
    const double t0 = 10.5 * 3600.0, t1 = 11.0 * 3600.0, dt = 0.1;
    const auto g = synthesize_irradiance(sky, c, t0, t1, dt, 42);
    const auto trans =
        synthesize_transmittance(weather_params_for(c), t0, t1, dt, 42);
    ASSERT_EQ(g.size(), trans.size()) << to_string(c);
    for (std::size_t k = 0; k < g.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.xs()[k]),
                std::bit_cast<std::uint64_t>(trans.xs()[k]))
          << to_string(c) << " knot " << k;
      const double expected = sky.irradiance(trans.xs()[k]) * trans.ys()[k];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.ys()[k]),
                std::bit_cast<std::uint64_t>(expected))
          << to_string(c) << " knot " << k;
    }
  }
}

TEST(Weather, MicroVariabilityPresent) {
  // Partial sun must show substantial short-horizon swings (the 'micro'
  // variability of Fig. 1) -- check the max 10 s change exceeds 20 %.
  auto trace = synthesize_transmittance(
      weather_params_for(WeatherCondition::kPartialSun), 0.0, 3600.0, 0.1,
      21);
  double max_swing = 0.0;
  const std::size_t lag = 100;  // 10 s at 0.1 s sampling
  for (std::size_t i = lag; i < trace.size(); ++i)
    max_swing = std::max(max_swing,
                         std::abs(trace.ys()[i] - trace.ys()[i - lag]));
  EXPECT_GT(max_swing, 0.2);
}

TEST(Weather, RejectsBadArguments) {
  const auto p = weather_params_for(WeatherCondition::kFullSun);
  EXPECT_THROW(synthesize_transmittance(p, 10.0, 10.0, 0.1, 1),
               pns::ContractViolation);
  EXPECT_THROW(synthesize_transmittance(p, 0.0, 10.0, 0.0, 1),
               pns::ContractViolation);
}

TEST(ShadowingEvent, PiecewiseShape) {
  auto s = shadowing_event(0.0, 10.0, 2.0, 0.5, 3.0, 0.5, 0.2);
  EXPECT_DOUBLE_EQ(s(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s(1.9), 1.0);
  EXPECT_NEAR(s(2.25), 0.6, 1e-9);   // mid-fall
  EXPECT_DOUBLE_EQ(s(3.0), 0.2);     // hold
  EXPECT_DOUBLE_EQ(s(5.0), 0.2);     // still holding
  EXPECT_NEAR(s(5.75), 0.6, 1e-9);   // mid-recovery
  EXPECT_DOUBLE_EQ(s(6.5), 1.0);
  EXPECT_DOUBLE_EQ(s(10.0), 1.0);
}

TEST(ShadowingEvent, EventAtStartSupported) {
  auto s = shadowing_event(0.0, 5.0, 0.0, 1.0, 1.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(s(0.0), 1.0);
  EXPECT_NEAR(s(0.5), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(s(1.5), 0.0);
}

TEST(ShadowingEvent, RejectsOverrunningWindow) {
  EXPECT_THROW(shadowing_event(0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5),
               pns::ContractViolation);
}

TEST(WeatherNames, ToString) {
  EXPECT_STREQ(to_string(WeatherCondition::kFullSun), "full-sun");
  EXPECT_STREQ(to_string(WeatherCondition::kHail), "hail");
}

}  // namespace
}  // namespace pns::trace
