// Fixed-step classic RK4 integrator.
//
// A verification baseline: the convergence-order tests integrate known
// analytic systems with it and with the adaptive RK23 and assert the
// expected order of accuracy, which cross-checks the RK23
// implementation.
#pragma once

#include "ehsim/ode.hpp"

namespace pns::ehsim {

/// Integrates y' = f(t,y) from (t0, y0) to t_end with fixed step h using
/// the classic 4th-order Runge-Kutta method; returns the final state.
double integrate_rk4(const OdeSystem& system, double t0, double y0,
                     double t_end, double h);

}  // namespace pns::ehsim
