// Resistive potential divider (part of the Fig. 9 monitoring network).
//
// Scales the storage-node voltage down to the comparator's 400 mV
// reference range. The bottom leg is partly a digital potentiometer, so
// the effective ratio (and therefore the threshold) is software
// programmable; this file models just the resistive arithmetic.
#pragma once

namespace pns::hw {

/// Two-resistor divider: out = in * r_bottom / (r_top + r_bottom).
struct PotentialDivider {
  double r_top;     ///< ohms, from the monitored node to the tap
  double r_bottom;  ///< ohms, from the tap to ground

  /// Divider gain (0, 1).
  double ratio() const;

  /// Tap voltage for a given input.
  double output(double v_in) const;

  /// Input voltage that produces `v_out` at the tap.
  double input_for_output(double v_out) const;
};

}  // namespace pns::hw
