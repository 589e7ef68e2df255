// Tests for the capacitor, sources, loads and the single-node circuit
// (ehsim/capacitor, ehsim/sources, ehsim/loads, ehsim/circuit).
#include <gtest/gtest.h>

#include <cmath>

#include "ehsim/capacitor.hpp"
#include "ehsim/circuit.hpp"
#include "ehsim/loads.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/sources.hpp"
#include "util/contracts.hpp"

namespace pns::ehsim {
namespace {

TEST(Capacitor, EnergyAndCharge) {
  Capacitor c{.capacitance = 47e-3};
  EXPECT_NEAR(c.energy(5.0), 0.5 * 47e-3 * 25.0, 1e-12);
  EXPECT_NEAR(c.charge(5.0), 0.235, 1e-12);
}

TEST(Capacitor, LeakageCurrent) {
  Capacitor c{.capacitance = 1e-3, .leakage_resistance = 1e4};
  EXPECT_NEAR(c.leakage_current(5.0), 5e-4, 1e-12);
}

TEST(Capacitor, RequiredCapacitanceRule) {
  // Table I scenario (b): 46.1 mC over 3 V -> ~15.4 mF.
  EXPECT_NEAR(required_capacitance(0.0461, 3.0), 15.37e-3, 0.05e-3);
  EXPECT_THROW(required_capacitance(0.1, 0.0), pns::ContractViolation);
  EXPECT_THROW(required_capacitance(-0.1, 1.0), pns::ContractViolation);
}

TEST(ConstantPowerLoad, CurrentIsPowerOverVoltage) {
  ConstantPowerLoad load(10.0);
  EXPECT_NEAR(load.current(5.0, 0.0), 2.0, 1e-12);
  EXPECT_NEAR(load.current(4.0, 0.0), 2.5, 1e-12);
}

TEST(ConstantPowerLoad, CutoffSwitchesToResidual) {
  ConstantPowerLoad load(10.0, 4.1, 0.05);
  EXPECT_NEAR(load.current(4.0, 0.0), 0.05 / 4.0, 1e-12);
  EXPECT_NEAR(load.current(4.2, 0.0), 10.0 / 4.2, 1e-12);
}

TEST(ConstantPowerLoad, NoSingularityAtZeroVolts) {
  ConstantPowerLoad load(10.0);
  EXPECT_LT(load.current(0.0, 0.0), 10.0 / 0.049);
  EXPECT_GT(load.current(0.0, 0.0), 0.0);
}

TEST(ResistiveLoad, OhmsLaw) {
  ResistiveLoad load(100.0);
  EXPECT_NEAR(load.current(5.0, 0.0), 0.05, 1e-12);
  EXPECT_THROW(ResistiveLoad(0.0), pns::ContractViolation);
}

TEST(ControlledSupply, PushesAndSinks) {
  ControlledSupply s([](double) { return 5.0; }, 10.0);
  EXPECT_NEAR(s.current(4.0, 0.0), 0.1, 1e-12);
  EXPECT_NEAR(s.current(6.0, 0.0), -0.1, 1e-12);
}

TEST(ControlledSupply, DiodeIsolationBlocksSinking) {
  ControlledSupply s([](double) { return 5.0; }, 10.0,
                     /*diode_isolated=*/true);
  EXPECT_NEAR(s.current(6.0, 0.0), 0.0, 1e-12);
  EXPECT_GT(s.current(4.0, 0.0), 0.0);
}

TEST(ControlledSupply, AvailablePowerIsMaxTransfer) {
  ControlledSupply s([](double) { return 10.0; }, 5.0);
  EXPECT_NEAR(s.available_power(0.0), 100.0 / 20.0, 1e-12);
}

TEST(EhCircuit, RcDischargeMatchesAnalytic) {
  // C discharging through R: v(t) = v0 exp(-t/RC).
  ConstantCurrentSource none(0.0);
  ResistiveLoad load(100.0);
  EhCircuit circuit(none, load, Capacitor{.capacitance = 1e-2,
                                          .leakage_resistance = 1e12});
  Rk23Options opt;
  opt.rel_tol = 1e-9;
  opt.abs_tol = 1e-12;
  Rk23Integrator ig(circuit, opt);
  const double v0 = 5.0;
  ig.reset(0.0, v0);
  ig.advance(1.0);
  EXPECT_NEAR(ig.state(), 5.0 * std::exp(-1.0), 1e-6);
}

TEST(EhCircuit, ConstantCurrentChargesLinearly) {
  ConstantCurrentSource src(0.1);
  ConstantPowerLoad load(0.0);
  EhCircuit circuit(src, load, Capacitor{.capacitance = 0.05,
                                         .leakage_resistance = 1e12});
  Rk23Integrator ig(circuit);
  const double v0 = 1.0;
  ig.reset(0.0, v0);
  ig.advance(2.0);
  // dv/dt = I/C = 2 V/s -> v(2) = 5 V
  EXPECT_NEAR(ig.state(), 5.0, 1e-5);
}

TEST(EhCircuit, NodeVoltageCannotGoNegative) {
  ConstantCurrentSource none(0.0);
  ConstantPowerLoad load(1.0);  // keeps drawing even at 0 V (floored)
  EhCircuit circuit(none, load, Capacitor{.capacitance = 1e-3,
                                          .leakage_resistance = 1e12});
  Rk23Options opt;
  opt.max_step = 1e-3;
  Rk23Integrator ig(circuit, opt);
  const double v0 = 0.5;
  ig.reset(0.0, v0);
  ig.advance(5.0);
  EXPECT_GE(ig.state(), -1e-6);
}

TEST(EhCircuit, LeakageDischargesIdleNode) {
  ConstantCurrentSource none(0.0);
  ConstantPowerLoad load(0.0);
  EhCircuit circuit(none, load, Capacitor{.capacitance = 1e-2,
                                          .leakage_resistance = 100.0});
  Rk23Options opt;
  opt.rel_tol = 1e-9;
  opt.abs_tol = 1e-12;
  Rk23Integrator ig(circuit, opt);
  const double v0 = 5.0;
  ig.reset(0.0, v0);
  ig.advance(1.0);  // tau = R*C = 1 s
  EXPECT_NEAR(ig.state(), 5.0 * std::exp(-1.0), 1e-5);
}

TEST(EhCircuit, PvSourceDrivesNodeTowardsOpenCircuit) {
  auto cell = SolarCell::calibrate(6.8, 1.15, 5.3, 0.3, 200.0);
  PvSource src(cell, [](double) { return 1000.0; });
  ConstantPowerLoad load(0.0);  // no load
  EhCircuit circuit(src, load, Capacitor{.capacitance = 47e-3,
                                         .leakage_resistance = 1e9});
  Rk23Options opt;
  opt.max_step = 0.01;
  Rk23Integrator ig(circuit, opt);
  const double v0 = 4.5;
  ig.reset(0.0, v0);
  ig.advance(30.0);
  EXPECT_NEAR(ig.state(), cell.open_circuit_voltage(1000.0), 0.02);
}

TEST(PvSource, AvailablePowerIsMpp) {
  auto cell = SolarCell::calibrate(6.8, 1.15, 5.3, 0.3, 200.0);
  PvSource src(cell, [](double t) { return t < 1.0 ? 1000.0 : 500.0; });
  EXPECT_NEAR(src.available_power(0.0), cell.mpp(1000.0).power, 1e-9);
  EXPECT_NEAR(src.available_power(2.0), cell.mpp(500.0).power, 1e-9);
}

}  // namespace
}  // namespace pns::ehsim
