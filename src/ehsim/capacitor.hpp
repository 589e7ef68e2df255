// Buffer capacitor model.
//
// The paper's whole point is that only a *tiny* capacitor (47 mF vs the
// multi-farad supercapacitors of energy-neutral designs) is needed when
// consumption tracks harvest. The model includes the parasitic that
// matters to the node equation at this scale: a parallel leakage
// resistance.
#pragma once

namespace pns::ehsim {

/// Capacitor with parallel leakage.
struct Capacitor {
  double capacitance;          ///< F
  double leakage_resistance = 1e9;  ///< ohm, parallel self-discharge path

  /// Stored energy at voltage v: E = C v^2 / 2 (J).
  double energy(double v) const;

  /// Stored charge at voltage v: Q = C v (C).
  double charge(double v) const;

  /// Self-discharge current at voltage v (A).
  double leakage_current(double v) const;
};

/// Returns the capacitance (F) required to supply charge `q` while the
/// voltage falls by no more than `dv_allowed` -- the sizing rule behind
/// Table I of the paper.
double required_capacitance(double q, double dv_allowed);

}  // namespace pns::ehsim
