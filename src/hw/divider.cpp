#include "hw/divider.hpp"

#include "util/contracts.hpp"

namespace pns::hw {

double PotentialDivider::ratio() const {
  PNS_EXPECTS(r_top > 0.0 && r_bottom > 0.0);
  return r_bottom / (r_top + r_bottom);
}

double PotentialDivider::output(double v_in) const {
  return v_in * ratio();
}

double PotentialDivider::input_for_output(double v_out) const {
  return v_out / ratio();
}

}  // namespace pns::hw
