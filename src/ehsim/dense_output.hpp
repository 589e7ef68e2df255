// Dense output over one accepted integrator step, as an explicit cubic.
//
// The RK23 integrator's continuous extension is the cubic Hermite
// interpolant through the step's endpoint states and derivatives. For
// event localisation the interesting question is "where does component 0
// cross a level?" -- which for the Hermite form is a *polynomial root*,
// not something that needs 60 rounds of bisection. This module expands
// the Hermite basis into monomial coefficients once per accepted step and
// localises threshold crossings with a derivative-bracketed safeguarded
// Newton iteration: the cubic is split at its critical points into
// monotone pieces, each of which holds at most one root, and the earliest
// matching piece is polished to tolerance. ~6 polynomial evaluations
// replace ~60 Hermite evaluations per localisation.
#pragma once

#include "ehsim/ode.hpp"

namespace pns::ehsim {

/// One state component's dense output over an accepted step [t0, t0+h],
/// expanded to monomial form in the normalised coordinate s = (t-t0)/h:
///   y(s) = c0 + c1 s + c2 s^2 + c3 s^3,  s in [0, 1].
struct HermiteCubic {
  double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;

  /// Expands the Hermite data (endpoint values y0/y1 and derivatives
  /// f0/f1 *per unit t*, step length h) into monomial coefficients.
  static HermiteCubic from_step(double h, double y0, double y1, double f0,
                                double f1);

  double eval(double s) const { return ((c3 * s + c2) * s + c1) * s + c0; }
};

/// Result of a threshold-crossing search inside one step.
struct CrossingResult {
  bool found = false;
  double s = 1.0;  ///< normalised crossing location (valid when found)
};

/// Earliest s in [0, 1] where the cubic crosses `level` in `direction`,
/// localised to within `s_tol`. The endpoint values eval(0)/eval(1) are
/// used for the bracket test, so the caller's direction semantics match
/// the integrator's discrete crossing test exactly. Deterministic.
CrossingResult earliest_crossing(const HermiteCubic& cubic, double level,
                                 EventDirection direction, double s_tol);

}  // namespace pns::ehsim
