// Loads drawing current from the storage node.
//
// The ODROID board behaves as a constant-power load over its 4.1-5.7 V
// input range (its on-board regulators hold the rails, so I = P / Vin).
// ConstantPowerLoad captures that with a minimum-voltage cutoff below
// which the regulators drop out and draw only residual current. The
// co-simulation engine couples the SoC power model into the circuit
// through its own Load (SimEngine::OdeLoad, sim/engine.hpp).
#pragma once

#include <limits>

namespace pns::ehsim {

/// A device that draws current from the storage node.
class Load {
 public:
  virtual ~Load() = default;

  /// Current (A) out of the node at node voltage `v` and time `t`.
  virtual double current(double v, double t) const = 0;

  /// Latest time T >= t such that the load's *time* dependence is
  /// provably constant over [t, T] (same contract as
  /// CurrentSource::constant_until). Default: unknown.
  virtual double constant_until(double t) const { return t; }
};

/// Constant-power load with undervoltage cutoff:
///   I = P / v          for v >= v_cutoff
///   I = residual / v   below cutoff (regulator dropout, residual watts)
/// A small series floor on v avoids the 1/v singularity at node collapse.
class ConstantPowerLoad : public Load {
 public:
  ConstantPowerLoad(double watts, double v_cutoff = 0.0,
                    double residual_watts = 0.0);

  double current(double v, double t) const override;
  double constant_until(double /*t*/) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double watts_;
  double v_cutoff_;
  double residual_watts_;
};

/// Ohmic load I = v / R (test baseline: gives analytic RC discharge).
class ResistiveLoad : public Load {
 public:
  explicit ResistiveLoad(double ohms);
  double current(double v, double t) const override;
  double constant_until(double /*t*/) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double ohms_;
};

}  // namespace pns::ehsim
