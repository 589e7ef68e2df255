// Tests for the clear-sky irradiance model (trace/irradiance).
#include "trace/irradiance.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace pns::trace {
namespace {

constexpr double kH = 3600.0;

TEST(ClearSky, ZeroOutsideDaylight) {
  ClearSky sky;
  EXPECT_DOUBLE_EQ(sky.irradiance(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sky.irradiance(5.9 * kH), 0.0);
  EXPECT_DOUBLE_EQ(sky.irradiance(20.1 * kH), 0.0);
  EXPECT_DOUBLE_EQ(sky.irradiance(23.9 * kH), 0.0);
}

TEST(ClearSky, PeakAtSolarNoon) {
  ClearSky sky;
  const double noon = sky.solar_noon();
  EXPECT_NEAR(sky.irradiance(noon), sky.params().peak_wm2, 1e-9);
  EXPECT_GT(sky.irradiance(noon), sky.irradiance(noon - 2 * kH));
  EXPECT_GT(sky.irradiance(noon), sky.irradiance(noon + 2 * kH));
}

TEST(ClearSky, MorningMonotoneRise) {
  ClearSky sky;
  double prev = 0.0;
  for (double t = sky.params().sunrise_s + 600.0; t < sky.solar_noon();
       t += 1800.0) {
    const double g = sky.irradiance(t);
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(ClearSky, SymmetricAroundNoon) {
  ClearSky sky;
  const double noon = sky.solar_noon();
  for (double dt = 0.5 * kH; dt <= 6.0 * kH; dt += kH) {
    EXPECT_NEAR(sky.irradiance(noon - dt), sky.irradiance(noon + dt), 1e-9);
  }
}

TEST(ClearSky, HigherShapeNarrowsBell) {
  ClearSkyParams p1;
  p1.shape = 1.0;
  ClearSkyParams p2 = p1;
  p2.shape = 2.0;
  ClearSky wide(p1), narrow(p2);
  // Same peak...
  EXPECT_NEAR(wide.irradiance(wide.solar_noon()),
              narrow.irradiance(narrow.solar_noon()), 1e-9);
  // ...less energy off-peak.
  EXPECT_GT(wide.irradiance(8.0 * kH), narrow.irradiance(8.0 * kH));
}

TEST(ClearSky, RejectsBadParams) {
  ClearSkyParams p;
  p.sunrise_s = p.sunset_s;
  EXPECT_THROW(ClearSky{p}, pns::ContractViolation);
  ClearSkyParams q;
  q.shape = 0.0;
  EXPECT_THROW(ClearSky{q}, pns::ContractViolation);
}

}  // namespace
}  // namespace pns::trace
