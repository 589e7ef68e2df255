#include "ehsim/circuit.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::ehsim {

EhCircuit::EhCircuit(const CurrentSource& source, const Load& load,
                     Capacitor cap)
    : source_(&source), load_(&load), cap_(cap) {
  PNS_EXPECTS(cap_.capacitance > 0.0);
}

double EhCircuit::derivative(double t, double v) const {
  return derivative_with_source(t, v, source_->current(v, t));
}

double EhCircuit::net_current(double v, double t) const {
  return source_->current(v, t) - load_->current(v, t) -
         cap_.leakage_current(v);
}

double EhCircuit::derivative_with_source(double t, double v,
                                         double i_source) const {
  // net_current() term for term (same association order), with the
  // source term already evaluated.
  const double net =
      i_source - load_->current(v, t) - cap_.leakage_current(v);
  double dv = net / cap_.capacitance;
  // The node voltage cannot go negative: clamp the derivative at 0 V.
  if (v <= 0.0 && dv < 0.0) dv = 0.0;
  return dv;
}

double EhCircuit::time_invariant_until(double t) const {
  return std::min(source_->constant_until(t), load_->constant_until(t));
}

double EhCircuit::equilibrium_voltage(double t, double v_lo,
                                      double v_hi) const {
  PNS_EXPECTS(v_lo < v_hi);
  double f_lo = net_current(v_lo, t);
  double f_hi = net_current(v_hi, t);
  if (f_lo * f_hi > 0.0)
    return std::abs(f_lo) < std::abs(f_hi) ? v_lo : v_hi;
  for (int iter = 0; iter < 100 && (v_hi - v_lo) > 1e-9; ++iter) {
    const double mid = 0.5 * (v_lo + v_hi);
    const double f_mid = net_current(mid, t);
    if (f_lo * f_mid <= 0.0) {
      v_hi = mid;
      f_hi = f_mid;
    } else {
      v_lo = mid;
      f_lo = f_mid;
    }
  }
  return 0.5 * (v_lo + v_hi);
}

}  // namespace pns::ehsim
