#include "ehsim/circuit.hpp"

#include <algorithm>

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

double EhCircuit::derivative_with_source(double t, double v,
                                         double i_source) const {
  // Net current into the node; the source term is already evaluated.
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

}  // namespace pns::ehsim
