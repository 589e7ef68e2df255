// The storage-node circuit of Fig. 2/Fig. 8 as a scalar ODE system.
//
// One state variable: the capacitor voltage VC.
//
//   C * dVC/dt = I_source(VC, t) - I_load(VC, t) - VC / R_leak
//
// The source and load are polymorphic (PV array / bench supply; SoC load),
// so the same circuit serves the Simulink-style study (Section III), the
// controlled-supply experiment (Fig. 11) and the full solar runs
// (Figs. 12-14).
#pragma once

#include "ehsim/capacitor.hpp"
#include "ehsim/loads.hpp"
#include "ehsim/ode.hpp"
#include "ehsim/sources.hpp"

namespace pns::ehsim {

/// Single-node harvester + capacitor + load circuit.
class EhCircuit : public OdeSystem {
 public:
  /// Both `source` and `load` are borrowed and must outlive the circuit.
  EhCircuit(const CurrentSource& source, const Load& load, Capacitor cap);

  /// dVC/dt at node voltage v, time t.
  double derivative(double t, double v) const override;

  const Capacitor& capacitor() const { return cap_; }

  /// The harvester feeding the node (borrowed at construction).
  const CurrentSource& source() const { return *source_; }

  /// dVC/dt with the source current supplied by the caller -- the one
  /// body of the node equation; derivative() calls it with
  /// source().current(v, t). The batched path (ehsim/solar_cell_simd.hpp)
  /// evaluates the PV solves batched across lanes and feeds each lane's
  /// current in here.
  double derivative_with_source(double t, double v, double i_source) const;

  /// Latest time T >= t such that the whole right-hand side is provably
  /// time-invariant on [t, T]: the minimum of the source's and the load's
  /// constant_until (capacitor leakage depends on V only). On such spans
  /// the ODE is autonomous, which is what licenses the engine's
  /// steady-state coasting jump.
  double time_invariant_until(double t) const;

 private:
  const CurrentSource* source_;
  const Load* load_;
  Capacitor cap_;
};

}  // namespace pns::ehsim
