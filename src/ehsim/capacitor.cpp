#include "ehsim/capacitor.hpp"

#include "util/contracts.hpp"

namespace pns::ehsim {

double Capacitor::energy(double v) const {
  return 0.5 * capacitance * v * v;
}

double Capacitor::charge(double v) const { return capacitance * v; }

double Capacitor::leakage_current(double v) const {
  PNS_EXPECTS(leakage_resistance > 0.0);
  return v / leakage_resistance;
}

double required_capacitance(double q, double dv_allowed) {
  PNS_EXPECTS(q >= 0.0);
  PNS_EXPECTS(dv_allowed > 0.0);
  return q / dv_allowed;
}

}  // namespace pns::ehsim
