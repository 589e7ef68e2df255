#include "ehsim/loads.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pns::ehsim {

namespace {
// Below this node voltage the constant-power division is floored to avoid
// the 1/v singularity; physically the regulators have long since dropped
// out at such voltages.
constexpr double kMinDivisorVolts = 0.05;
}  // namespace

ConstantPowerLoad::ConstantPowerLoad(double watts, double v_cutoff,
                                     double residual_watts)
    : watts_(watts), v_cutoff_(v_cutoff), residual_watts_(residual_watts) {
  PNS_EXPECTS(watts >= 0.0);
  PNS_EXPECTS(v_cutoff >= 0.0);
  PNS_EXPECTS(residual_watts >= 0.0);
}

double ConstantPowerLoad::current(double v, double /*t*/) const {
  const double divisor = std::max(v, kMinDivisorVolts);
  if (v < v_cutoff_) return residual_watts_ / divisor;
  return watts_ / divisor;
}

ResistiveLoad::ResistiveLoad(double ohms) : ohms_(ohms) {
  PNS_EXPECTS(ohms > 0.0);
}

double ResistiveLoad::current(double v, double /*t*/) const {
  return v / ohms_;
}

}  // namespace pns::ehsim
