// Tests for the single-diode PV model (ehsim/solar_cell): calibration,
// IV-curve invariants and MPP behaviour.
#include "ehsim/solar_cell.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pns::ehsim {
namespace {

SolarCell paper_cell() {
  return SolarCell::calibrate(/*voc=*/6.8, /*isc=*/1.15, /*vmpp=*/5.3,
                              /*rs=*/0.30, /*rp=*/200.0);
}

TEST(SolarCellCalibrate, HitsOpenCircuitVoltage) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.open_circuit_voltage(1000.0), 6.8, 0.02);
}

TEST(SolarCellCalibrate, HitsShortCircuitCurrent) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.short_circuit_current(1000.0), 1.15, 0.01);
}

TEST(SolarCellCalibrate, HitsMppVoltage) {
  auto cell = paper_cell();
  EXPECT_NEAR(cell.mpp(1000.0).voltage, 5.3, 0.05);
}

TEST(SolarCellCalibrate, MppPowerPlausible) {
  // Paper Fig. 13: array peak power ~5.4 W.
  auto cell = paper_cell();
  const double p = cell.mpp(1000.0).power;
  EXPECT_GT(p, 4.5);
  EXPECT_LT(p, 6.5);
}

TEST(SolarCellCalibrate, RejectsInconsistentTargets) {
  EXPECT_THROW(SolarCell::calibrate(5.0, 1.0, 5.5), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(-1.0, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(5.0, 0.0, 4.0), std::invalid_argument);
  EXPECT_THROW(SolarCell::calibrate(5.0, 1.0, 4.0, -0.1),
               std::invalid_argument);
}

TEST(SolarCell, CurrentMonotoneDecreasingInVoltage) {
  auto cell = paper_cell();
  double prev = cell.current(0.0, 1000.0);
  for (double v = 0.2; v <= 7.4; v += 0.2) {
    const double i = cell.current(v, 1000.0);
    EXPECT_LT(i, prev) << "at v=" << v;
    prev = i;
  }
}

TEST(SolarCell, SinksBeyondOpenCircuit) {
  auto cell = paper_cell();
  EXPECT_LT(cell.current(7.2, 1000.0), 0.0);
}

TEST(SolarCell, DarkCellProducesNoPower) {
  auto cell = paper_cell();
  EXPECT_DOUBLE_EQ(cell.photo_current(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.photo_current(-50.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.open_circuit_voltage(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cell.mpp(0.0).power, 0.0);
  EXPECT_LE(cell.current(1.0, 0.0), 0.0);  // dark diode only absorbs
}

TEST(SolarCell, PhotoCurrentLinearInIrradiance) {
  auto cell = paper_cell();
  const double i1 = cell.photo_current(250.0);
  const double i2 = cell.photo_current(500.0);
  const double i4 = cell.photo_current(1000.0);
  EXPECT_NEAR(i2, 2.0 * i1, 1e-12);
  EXPECT_NEAR(i4, 4.0 * i1, 1e-12);
}

TEST(SolarCell, MppPowerScalesSublinearlyWithIrradiance) {
  auto cell = paper_cell();
  const double p_full = cell.mpp(1000.0).power;
  const double p_half = cell.mpp(500.0).power;
  EXPECT_GT(p_half, 0.40 * p_full);  // roughly proportional
  EXPECT_LT(p_half, 0.60 * p_full);
}

TEST(SolarCell, MppIsActuallyTheMaximum) {
  auto cell = paper_cell();
  const auto mpp = cell.mpp(800.0);
  for (double v = 0.1; v < cell.open_circuit_voltage(800.0); v += 0.1) {
    EXPECT_LE(cell.power(v, 800.0), mpp.power + 1e-6) << "at v=" << v;
  }
}

TEST(SolarCell, ResidualOfImplicitEquationIsSmall) {
  auto cell = paper_cell();
  const auto& p = cell.params();
  for (double v : {0.0, 2.0, 4.0, 5.3, 6.0, 6.8}) {
    const double il = cell.photo_current(1000.0);
    const double i = cell.current_from_photo(v, il);
    const double vd = v + p.rs * i;
    const double residual =
        il - p.i0 * (std::exp(vd / p.vt_eff) - 1.0) - vd / p.rp - i;
    EXPECT_NEAR(residual, 0.0, 1e-9) << "at v=" << v;
  }
}

TEST(SolarCell, ScaledAreaScalesCurrentsNotVoltages) {
  auto cell = paper_cell();
  auto half = cell.scaled_area(0.5);
  EXPECT_NEAR(half.short_circuit_current(1000.0),
              0.5 * cell.short_circuit_current(1000.0), 1e-6);
  EXPECT_NEAR(half.open_circuit_voltage(1000.0),
              cell.open_circuit_voltage(1000.0), 1e-6);
  EXPECT_NEAR(half.mpp(1000.0).power, 0.5 * cell.mpp(1000.0).power, 1e-3);
}

TEST(SolarCell, ScaledAreaRejectsNonPositive) {
  auto cell = paper_cell();
  EXPECT_THROW(cell.scaled_area(0.0), pns::ContractViolation);
}

class SolarIrradianceSweep : public ::testing::TestWithParam<double> {};

// Property: at every irradiance level, 0 <= Vmpp <= Voc, Impp <= Isc and
// MPP power equals Vmpp * Impp.
TEST_P(SolarIrradianceSweep, MppInvariants) {
  auto cell = paper_cell();
  const double g = GetParam();
  const auto mpp = cell.mpp(g);
  const double voc = cell.open_circuit_voltage(g);
  const double isc = cell.short_circuit_current(g);
  EXPECT_GE(mpp.voltage, 0.0);
  EXPECT_LE(mpp.voltage, voc + 1e-9);
  EXPECT_LE(mpp.current, isc + 1e-9);
  EXPECT_NEAR(mpp.power, mpp.voltage * mpp.current, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Irradiances, SolarIrradianceSweep,
                         ::testing::Values(50.0, 100.0, 250.0, 500.0, 750.0,
                                           1000.0, 1200.0));

}  // namespace
}  // namespace pns::ehsim
