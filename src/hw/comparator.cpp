#include "hw/comparator.hpp"

#include "util/contracts.hpp"

namespace pns::hw {

Comparator::Comparator(ComparatorParams params) : params_(params) {
  PNS_EXPECTS(params_.v_ref > 0.0);
  PNS_EXPECTS(params_.hysteresis_v >= 0.0);
}

double Comparator::rising_trip() const {
  return params_.v_ref + params_.offset_v + 0.5 * params_.hysteresis_v;
}

double Comparator::falling_trip() const {
  return params_.v_ref + params_.offset_v - 0.5 * params_.hysteresis_v;
}

bool Comparator::update(double v_in) {
  if (output_high_) {
    if (v_in < falling_trip()) output_high_ = false;
  } else {
    if (v_in > rising_trip()) output_high_ = true;
  }
  return output_high_;
}

void Comparator::reset(bool output_high) { output_high_ = output_high; }

}  // namespace pns::hw
